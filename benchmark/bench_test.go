package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func smokeOps(t *testing.T, name string, seed int64) *opSeq {
	t.Helper()
	sz := sizes["smoke"]
	d, err := generate(sz)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	ops, err := newOps(w.scaled(sz), d, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := smokeOps(t, w.name, 7), smokeOps(t, w.name, 7), smokeOps(t, w.name, 8)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave hashes %x and %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %x", w.name, a.hash)
		}
	}
	// The comparison between the two sparse workloads rests on this.
	if a, b := smokeOps(t, "sparse_single", 7), smokeOps(t, "sparse_remote4", 7); a.hash != b.hash {
		t.Errorf("sparse_single and sparse_remote4 differ: %x vs %x", a.hash, b.hash)
	}
}

func TestQuantileEstimators(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.9, 8.2}, {1, 9}, {0.25, 3}} {
		if got := quantile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	// One wild segment out of five must not move the median of segments.
	segs := [][]float64{{1, 2, 3}, {1, 2, 3}, {100, 200, 300}, {1, 2, 3}, {2, 3, 4}}
	if got := medianOf(segs, median); got != 2 {
		t.Errorf("median of segment medians = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// Cheap and expensive ops; every layer adds a fixed cost to each.
	chain := []layer{
		{"http", []float64{130, 1130, 131}},
		{"server", []float64{110, 1110, 110}},
		{"engine", []float64{100, 1100, 100}},
	}
	self := selfTimes(chain)
	if self["http"] != 20 || self["server"] != 10 || self["engine"] != 100 {
		t.Errorf("self times = %v, want http 20, server 10, engine 100", self)
	}
}

// TestManifestMatches keeps BENCHMARK.json and the program's metric and
// workload lists the same.
func TestManifestMatches(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) || len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d/%d/%d end-to-end/per-layer/workloads, program %d/%d/%d",
			len(m.EndToEnd), len(m.PerLayer), len(m.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	var setupBound, maxBound float64
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), program has %s (%s)", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
		maxBound = max(maxBound, e.Bound)
	}
	if setupBound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s bound %v must be the largest (%v) and at most 0.25", setupBound, maxBound)
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), program has %s (%s)", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeRuns executes every workload end to end, timed and traced, on the
// smoke population: no failed op, every metric reported, spans written.
func TestSmokeRuns(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 0.5, trace: trace, size: "smoke", out: out}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < verifySamples {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t)", w.name, trace, def.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must be positive", w.name, def.name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%t: result does not encode: %v", w.name, trace, err)
			}
		}
		b, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file holds %d spans, err %v", w.name, len(spans), err)
		}
	}
}
