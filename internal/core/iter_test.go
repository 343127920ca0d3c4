package core

import (
	"math/rand"
	"testing"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// TestIterMatchesTopK locks in the incremental search's defining property:
// the first k results of an Iter are bit-identical to Tree.TopK(q, k) for
// every k — same entities, same degrees, same tie order — and a full drain
// reproduces the brute-force total ranking.
func TestIterMatchesTopK(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		ix, st, tree := buildRandomWorld(t, seed, 70, 16)
		for _, m := range measuresFor(t, ix.Height()) {
			for _, qe := range []trace.EntityID{0, 7, 33, 69} {
				q := st.Get(qe)
				it, err := tree.NewIter(q, m)
				if err != nil {
					t.Fatalf("NewIter: %v", err)
				}
				var stream []Result
				for {
					r, ok, err := it.Next()
					if err != nil {
						t.Fatalf("Next: %v", err)
					}
					if !ok {
						break
					}
					stream = append(stream, r)
				}
				if len(stream) != tree.Len()-1 {
					t.Fatalf("seed %d measure %s q%d: drained %d results, want %d",
						seed, m.Name(), qe, len(stream), tree.Len()-1)
				}
				want := BruteForceTopK(st, tree.Entities(), q, len(stream), m)
				for i := range want {
					if stream[i] != want[i] {
						t.Fatalf("seed %d measure %s q%d: stream[%d] = %+v, brute force %+v",
							seed, m.Name(), qe, i, stream[i], want[i])
					}
				}
				for _, k := range []int{1, 2, 5, 10, 37, len(stream)} {
					got, _, err := tree.TopK(q, k, m)
					if err != nil {
						t.Fatalf("TopK: %v", err)
					}
					for i := range got {
						if stream[i] != got[i] {
							t.Fatalf("seed %d measure %s q%d k=%d: iter[%d] = %+v, TopK %+v",
								seed, m.Name(), qe, k, i, stream[i], got[i])
						}
					}
				}
			}
		}
	}
}

// TestIterBoundIsAdmissible checks the coordinator-facing contract: after
// every Next, Bound() dominates the degree of every result still to come.
// The threshold-pruned scatter-gather is only exact if this holds.
func TestIterBoundIsAdmissible(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 41, 60, 16)
	for _, m := range measuresFor(t, ix.Height()) {
		q := st.Get(5)
		it, err := tree.NewIter(q, m)
		if err != nil {
			t.Fatalf("NewIter: %v", err)
		}
		var stream []Result
		var bounds []float64
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			stream = append(stream, r)
			bounds = append(bounds, it.Bound())
		}
		for i, b := range bounds {
			for j := i + 1; j < len(stream); j++ {
				if stream[j].Degree > b {
					t.Fatalf("measure %s: Bound()=%g after result %d, but result %d has degree %g",
						m.Name(), b, i, j, stream[j].Degree)
				}
			}
		}
		// The stream itself must be monotone non-increasing in degree.
		for i := 1; i < len(stream); i++ {
			if stream[i].Degree > stream[i-1].Degree {
				t.Fatalf("measure %s: stream degree rose at %d: %g > %g",
					m.Name(), i, stream[i].Degree, stream[i-1].Degree)
			}
		}
	}
}

// TestIterFloor: under a floor an Iter returns exactly the prefix of its
// full order at or above it — ties at the floor included — then ends with
// Bound() below it, having scored no more than an unfloored drain; raising
// the floor after the zero-degree tail began ends it too; and Close ends the
// stream with its statistics intact.
func TestIterFloor(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 23, 70, 16)
	m := measuresFor(t, ix.Height())[0]
	q := st.Get(3)
	full := BruteForceTopK(st, tree.Entities(), q, tree.Len(), m)
	drain := func(it *Iter) (out []Result) {
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, r)
		}
	}
	unfloored, err := tree.NewIter(q, m)
	if err != nil {
		t.Fatal(err)
	}
	drain(unfloored)
	for _, i := range []int{0, 3, 9, 20} {
		floor := full[i].Degree
		if floor == 0 {
			continue
		}
		it, err := tree.NewIter(q, m)
		if err != nil {
			t.Fatal(err)
		}
		it.RaiseFloor(floor)
		it.RaiseFloor(floor / 2) // ignored: floors only rise
		got := drain(it)
		n := 0
		for n < len(full) && full[n].Degree >= floor {
			n++
		}
		if len(got) != n {
			t.Fatalf("floor %v: %d results, want the %d at or above it", floor, len(got), n)
		}
		for j := range got {
			if got[j] != full[j] {
				t.Fatalf("floor %v: result %d = %+v, want %+v", floor, j, got[j], full[j])
			}
		}
		if it.Bound() >= floor {
			t.Fatalf("floor %v: ended with Bound() %v", floor, it.Bound())
		}
		if it.Stats().Checked > unfloored.Stats().Checked {
			t.Fatalf("floor %v: scored %d, an unfloored drain %d", floor, it.Stats().Checked, unfloored.Stats().Checked)
		}
		checked := it.Stats().Checked
		it.Close()
		it.Close()
		if _, ok, _ := it.Next(); ok || it.Bound() != 0 || it.Stats().Checked != checked {
			t.Fatalf("closed iterator: ok=%v bound=%v checked=%d", ok, it.Bound(), it.Stats().Checked)
		}
	}

	// Into the zero-degree tail at floor 0, then a positive floor.
	it, err := tree.NewIter(q, m)
	if err != nil {
		t.Fatal(err)
	}
	for it.zeros == nil {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Skipf("no zero-degree tail in this world (ok=%v, %v)", ok, err)
		}
	}
	it.RaiseFloor(full[0].Degree)
	if r, ok, _ := it.Next(); ok {
		t.Fatalf("zero-degree tail returned %+v under a positive floor", r)
	}
}

// TestIterByExample exercises the query-by-example shape the shard fan-out
// uses (Entity = -1, so no self-exclusion): the drain must cover every
// indexed entity.
func TestIterByExample(t *testing.T) {
	ix, _, tree := buildRandomWorld(t, 59, 40, 16)
	rng := rand.New(rand.NewSource(99))
	var base []trace.Cell
	for i := 0; i < 12; i++ {
		base = append(base, trace.MakeCell(trace.Time(rng.Intn(40)), ix.BaseUnit(spindex.BaseID(rng.Intn(ix.NumBase())))))
	}
	q := trace.NewSequencesFromCells(ix, -1, base)
	m := measuresFor(t, ix.Height())[0]
	it, err := tree.NewIter(q, m)
	if err != nil {
		t.Fatalf("NewIter: %v", err)
	}
	seen := map[trace.EntityID]bool{}
	prev := 2.0
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		if seen[r.Entity] {
			t.Fatalf("entity %d emitted twice", r.Entity)
		}
		seen[r.Entity] = true
		if r.Degree > prev {
			t.Fatalf("degree rose: %g after %g", r.Degree, prev)
		}
		prev = r.Degree
	}
	if len(seen) != tree.Len() {
		t.Fatalf("by-example drain covered %d of %d entities", len(seen), tree.Len())
	}
	// Zero-degree entities may be flushed without a degree computation, so
	// Checked can undershoot the population but never exceed it.
	if got := it.Stats().Checked; got == 0 || got > tree.Len() {
		t.Fatalf("full drain Checked = %d, want in [1, %d]", got, tree.Len())
	}
}
