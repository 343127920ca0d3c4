package server

// /traces endpoint tests: the 409 opt-in contract, every filter parameter,
// both anomaly rules over synthetic traces with controlled shapes, and the
// end-to-end consistency criterion — traces served over HTTP from a real
// sharded engine must agree with the QueryStats the same queries returned.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
	"digitaltraces/shard"
)

// tracedTestServer is newTestServer plus a trace ring, returning the DB so
// tests can inject synthetic traces with exact shapes via Tracer().Record.
func tracedTestServer(t *testing.T, ring int) (*digitaltraces.DB, *httptest.Server) {
	t.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3},
		digitaltraces.WithTracing(ring))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, WithMaxK(50)))
	t.Cleanup(ts.Close)
	return db, ts
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func getTraces(t *testing.T, base, params string) TracesResponse {
	t.Helper()
	var resp TracesResponse
	getJSON(t, base+"/traces"+params, &resp)
	return resp
}

// TestTracesDisabled409: without a trace ring the endpoint answers 409, not
// an empty 200 a dashboard would mistake for "no slow queries".
func TestTracesDisabled409(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := getStatus(t, ts.URL+"/traces"); code != http.StatusConflict {
		t.Fatalf("GET /traces on untraced engine: %d: %s", code, body)
	}
}

// TestTracesFilters drives every query parameter against a ring of synthetic
// traces with controlled latencies and cache outcomes.
func TestTracesFilters(t *testing.T) {
	db, ts := tracedTestServer(t, 16)
	tr := db.Tracer()
	base := time.Now().Add(-time.Minute)
	// Five traces: latencies 1..5ms, alternating cache outcomes, two
	// entities. Recorded oldest-first; the snapshot returns newest-first.
	for i := 1; i <= 5; i++ {
		qt := obs.QueryTrace{
			Kind:     obs.KindTopK,
			Entity:   fmt.Sprintf("entity-%d", i%2),
			K:        5,
			CacheHit: i%2 == 0,
			Checked:  i * 10,
			Start:    base.Add(time.Duration(i) * time.Second),
			Total:    time.Duration(i) * time.Millisecond,
		}
		tr.Record(qt)
	}

	all := getTraces(t, ts.URL, "")
	if all.Total != 5 || all.Count != 5 || len(all.Traces) != 5 || all.Capacity != 16 {
		t.Fatalf("unfiltered: %+v", all)
	}
	if all.MedianUS != 3000 {
		t.Fatalf("median %dus, want 3000", all.MedianUS)
	}
	// Newest-first without a slowest cut.
	for i := 1; i < len(all.Traces); i++ {
		if all.Traces[i-1].ID < all.Traces[i].ID {
			t.Fatalf("snapshot order broken: %+v", all.Traces)
		}
	}

	slowest := getTraces(t, ts.URL, "?slowest=2")
	if slowest.Count != 2 || slowest.Traces[0].TotalUS != 5000 || slowest.Traces[1].TotalUS != 4000 {
		t.Fatalf("slowest=2: %+v", slowest)
	}
	if slowest.Total != 5 {
		t.Fatalf("slowest=2 total %d, want the unfiltered ring size 5", slowest.Total)
	}

	if got := getTraces(t, ts.URL, "?min_ms=3.5"); got.Count != 2 {
		t.Fatalf("min_ms=3.5 kept %d, want 2 (4ms, 5ms)", got.Count)
	}

	byEntity := getTraces(t, ts.URL, "?entity=entity-0")
	if byEntity.Count != 2 {
		t.Fatalf("entity filter kept %d, want 2", byEntity.Count)
	}
	for _, qt := range byEntity.Traces {
		if qt.Entity != "entity-0" {
			t.Fatalf("entity filter leaked %+v", qt)
		}
	}

	hits := getTraces(t, ts.URL, "?cache=hit")
	misses := getTraces(t, ts.URL, "?cache=miss")
	if hits.Count != 2 || misses.Count != 3 {
		t.Fatalf("cache split hit=%d miss=%d, want 2/3", hits.Count, misses.Count)
	}
	for _, qt := range hits.Traces {
		if !qt.CacheHit {
			t.Fatalf("cache=hit leaked a miss: %+v", qt)
		}
	}
	for _, qt := range misses.Traces {
		if qt.CacheHit {
			t.Fatalf("cache=miss leaked a hit: %+v", qt)
		}
	}

	if got := getTraces(t, ts.URL, "?limit=3"); got.Count != 3 {
		t.Fatalf("limit=3 kept %d", got.Count)
	}
	// Filters compose: slowest orders before limit truncates.
	combo := getTraces(t, ts.URL, "?cache=miss&slowest=5&limit=2")
	if combo.Count != 2 || combo.Traces[0].TotalUS != 5000 || combo.Traces[1].TotalUS != 3000 {
		t.Fatalf("combined filter: %+v", combo)
	}

	for _, bad := range []string{
		"?slowest=x", "?slowest=0", "?min_ms=-1", "?cache=sometimes",
		"?anomalies=maybe", "?latency_factor=0", "?skew_factor=-2", "?limit=0",
	} {
		if code, body := getStatus(t, ts.URL+"/traces"+bad); code != http.StatusBadRequest {
			t.Fatalf("GET /traces%s: %d: %s, want 400", bad, code, body)
		}
	}
}

// TestTracesAnomalies: the latency rule flags a trace far above the ring
// median, the skew rule flags a shard hoarding the pulled candidates, and
// the factor parameters move both thresholds.
func TestTracesAnomalies(t *testing.T) {
	db, ts := tracedTestServer(t, 16)
	tr := db.Tracer()
	now := time.Now()
	// Six baseline traces at ~1ms pin the median at 1ms.
	for i := 0; i < 6; i++ {
		tr.Record(obs.QueryTrace{Kind: obs.KindTopK, Entity: "steady", K: 5, Start: now, Total: time.Millisecond})
	}
	// One slow outlier: 10ms > 3 × 1ms.
	slowID := tr.Record(obs.QueryTrace{Kind: obs.KindTopK, Entity: "laggard", K: 5, Start: now, Total: 10 * time.Millisecond})
	// One artificially skewed fan-out at median speed: shard 0 pulled 90 of
	// 99 across 3 shards — fair share 33, threshold 66.
	skewID := tr.Record(obs.QueryTrace{
		Kind: obs.KindTopK, Entity: "skewed", K: 5, Start: now, Total: time.Millisecond,
		Pulled: 99,
		Shards: []obs.ShardTrace{
			{Shard: 0, Pulled: 90, Checked: 90},
			{Shard: 1, Pulled: 5, Checked: 5},
			{Shard: 2, Pulled: 4, Checked: 4},
		},
	})

	got := getTraces(t, ts.URL, "?anomalies=1")
	if got.Count != 2 {
		t.Fatalf("anomalies=1 kept %d traces: %+v", got.Count, got.Traces)
	}
	byID := map[uint64]Trace{}
	for _, qt := range got.Traces {
		byID[qt.ID] = qt
	}
	if qt, ok := byID[slowID]; !ok || len(qt.Anomalies) != 1 || qt.Anomalies[0] != "slow" {
		t.Fatalf("slow outlier: %+v", byID[slowID])
	}
	if qt, ok := byID[skewID]; !ok || len(qt.Anomalies) != 1 || qt.Anomalies[0] != "shard-skew" {
		t.Fatalf("skewed fan-out: %+v", byID[skewID])
	}

	// Raising the factors unflags each rule independently.
	if got := getTraces(t, ts.URL, "?anomalies=1&latency_factor=100"); got.Count != 1 || got.Traces[0].ID != skewID {
		t.Fatalf("latency_factor=100: %+v", got.Traces)
	}
	if got := getTraces(t, ts.URL, "?anomalies=1&skew_factor=10"); got.Count != 1 || got.Traces[0].ID != slowID {
		t.Fatalf("skew_factor=10: %+v", got.Traces)
	}
	// Annotations ride along on unfiltered responses too.
	all := getTraces(t, ts.URL, "")
	flagged := 0
	for _, qt := range all.Traces {
		flagged += len(qt.Anomalies)
	}
	if flagged != 2 {
		t.Fatalf("unfiltered response carries %d anomaly annotations, want 2", flagged)
	}
}

// TestTracesShardedEndToEnd is the acceptance criterion: on a sharded
// server, GET /traces?slowest=5 returns traces whose per-shard pulled and
// checked counts sum consistently with the QueryStats the same /topk calls
// returned over the wire — and /stats gains the latency quantiles.
func TestTracesShardedEndToEnd(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.Partition(db, shard.Config{
		Shards:    4,
		TraceSize: 32,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 4)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cluster, WithMaxK(50)))
	t.Cleanup(ts.Close)

	queried := []string{"entity-0", "entity-13", "entity-27", "entity-39"}
	wantStats := map[string]Stats{}
	for _, q := range queried {
		var got TopKResponse
		getJSON(t, fmt.Sprintf("%s/topk?entity=%s&k=5", ts.URL, q), &got)
		if got.Stats.Shards == 0 || got.Stats.Pulled == 0 {
			t.Fatalf("%s: wire stats missing fan-out shape: %+v", q, got.Stats)
		}
		wantStats[q] = got.Stats
	}

	resp := getTraces(t, ts.URL, "?slowest=5")
	if resp.Count != len(queried) || resp.Total != len(queried) {
		t.Fatalf("traces count=%d total=%d, want %d", resp.Count, resp.Total, len(queried))
	}
	seen := map[string]bool{}
	for _, qt := range resp.Traces {
		qs, ok := wantStats[qt.Entity]
		if !ok || seen[qt.Entity] {
			t.Fatalf("unexpected or duplicate trace entity %q", qt.Entity)
		}
		seen[qt.Entity] = true
		if len(qt.Shards) != qs.Shards {
			t.Fatalf("%s: trace touches %d shards, stats say %d", qt.Entity, len(qt.Shards), qs.Shards)
		}
		sumPulled := 0
		for _, st := range qt.Shards {
			sumPulled += st.Pulled
		}
		if sumPulled != qt.Pulled || qt.Pulled != qs.Pulled {
			t.Fatalf("%s: per-shard sum %d, trace pulled %d, stats pulled %d — must agree",
				qt.Entity, sumPulled, qt.Pulled, qs.Pulled)
		}
		if qt.Checked != qs.Checked {
			t.Fatalf("%s: trace checked %d, stats checked %d", qt.Entity, qt.Checked, qs.Checked)
		}
		if len(qt.Generations) != 4 {
			t.Fatalf("%s: generation vector %v, want 4 coordinates", qt.Entity, qt.Generations)
		}
	}
	// Slowest-first ordering over the wire.
	for i := 1; i < len(resp.Traces); i++ {
		if resp.Traces[i-1].TotalUS < resp.Traces[i].TotalUS {
			t.Fatalf("slowest=5 order broken: %+v", resp.Traces)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	topk, ok := st.Index.Latencies["topk"]
	if !ok || topk.Count != uint64(len(queried)) {
		t.Fatalf("/stats latencies = %+v, want topk count %d", st.Index.Latencies, len(queried))
	}
	if merge, ok := st.Index.Latencies["merge"]; !ok || merge.Count == 0 {
		t.Fatalf("/stats latencies missing merge histogram: %+v", st.Index.Latencies)
	}
	if topk.MaxUS < topk.P50US || topk.P99US < topk.P50US {
		t.Fatalf("latency quantiles inconsistent: %+v", topk)
	}
}
