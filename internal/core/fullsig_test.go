package core

import (
	"testing"

	"digitaltraces/internal/sighash"
	"digitaltraces/internal/trace"
)

func buildBothModes(t testing.TB, seed int64, entities, nh int) (*trace.Store, *Tree, *Tree) {
	t.Helper()
	ix, st, partial := buildRandomWorld(t, seed, entities, nh)
	fam, err := sighash.NewFamily(ix, 48, nh, uint64(seed)+1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildWithOptions(ix, fam, st, st.Entities(), Options{FullSignatures: true})
	if err != nil {
		t.Fatal(err)
	}
	return st, partial, full
}

// TestFullSignaturesExact: full-signature mode returns exactly the
// brute-force degrees — pruning with PS_N instead of PPS_N changes cost,
// never answers.
func TestFullSignaturesExact(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st, _, full := buildBothModes(t, seed, 40, 12)
		if err := full.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for _, m := range measuresFor(t, 3) {
			for _, k := range []int{1, 7} {
				q := st.Get(trace.EntityID(int(seed)))
				got, _, err := full.TopK(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				want := BruteForceTopK(st, st.Entities(), q, k, m)
				for i := range want {
					if got[i].Degree != want[i].Degree {
						t.Fatalf("seed %d: full-signature degrees diverge: %v vs %v", seed, got, want)
					}
				}
			}
		}
	}
}

// TestFullPrunesAtLeastAsWell: the full pruned set subsumes the partial one
// (Section 5.1), so the full-signature index never reaches more entities
// (Reached: what the signatures alone failed to prune, so the search asked is
// Algorithm 2 — the posting-driven TopK never consults a signature).
func TestFullPrunesAtLeastAsWell(t *testing.T) {
	st, partial, full := buildBothModes(t, 9, 150, 32)
	m := measuresFor(t, 3)[0]
	totPartial, totFull := 0, 0
	for e := trace.EntityID(0); e < 25; e++ {
		_, ps, err := partial.SignatureTopK(st.Get(e), 1, m)
		if err != nil {
			t.Fatal(err)
		}
		_, fs, err := full.SignatureTopK(st.Get(e), 1, m)
		if err != nil {
			t.Fatal(err)
		}
		totPartial += ps.Reached()
		totFull += fs.Reached()
	}
	if totFull > totPartial {
		t.Errorf("full signatures reached %d entities, partial %d — full pruning must dominate",
			totFull, totPartial)
	}
}

// TestFullSignatureMemoryCost: the ablation's price — node memory grows by
// ~nh coordinates per node.
func TestFullSignatureMemoryCost(t *testing.T) {
	_, partial, full := buildBothModes(t, 11, 60, 32)
	ps, fs := partial.Stats(), full.Stats()
	if ps.Nodes != fs.Nodes || ps.Entities != fs.Entities {
		t.Fatalf("modes built different trees: %+v vs %+v", ps, fs)
	}
	wantExtra := fs.Nodes * 32 * 8
	if fs.MemoryBytes-ps.MemoryBytes != wantExtra {
		t.Errorf("full-mode memory delta = %d, want %d", fs.MemoryBytes-ps.MemoryBytes, wantExtra)
	}
}

// TestFullModeUpdates: insert/remove/update keep full-signature indexes
// valid and exact.
func TestFullModeUpdates(t *testing.T) {
	st, _, full := buildBothModes(t, 13, 30, 8)
	m := measuresFor(t, 3)[0]
	if err := full.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := full.Update(5); err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	q := st.Get(0)
	got, _, err := full.TopK(q, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceTopK(st, full.Entities(), q, 4, m)
	for i := range want {
		if got[i].Degree != want[i].Degree {
			t.Fatalf("post-update full-mode degrees diverge: %v vs %v", got, want)
		}
	}
}
