package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// requireRank checks the floored search's contract against the scan: Rank
// returns exactly the canonical order restricted to the entities keep admits
// at or above floor, cut at want; Capped says whether want came back; Bound
// is at least the degree of every admitted entity it left out; and the
// counters account for every entity other than the query once.
func requireRank(t *testing.T, label string, p *Postings, q *trace.Sequences, m adm.Measure, want int, floor float64, keep func(trace.EntityID) bool) Ranked {
	t.Helper()
	var expect, left []Result
	for _, r := range BruteForceTopK(p.src, p.Entities(), q, p.Len(), m) {
		switch {
		case keep != nil && !keep(r.Entity):
		case r.Degree >= floor && len(expect) < want:
			expect = append(expect, r)
		default:
			left = append(left, r)
		}
	}
	got, err := p.Rank(q, want, floor, keep, m)
	if err != nil {
		t.Fatalf("%s: Rank(want %d, floor %v): %v", label, want, floor, err)
	}
	if !slices.Equal(got.Results, expect) {
		t.Fatalf("%s %s: Rank(want %d, floor %v)\n got  %v\n want %v", label, m.Name(), want, floor, got.Results, expect)
	}
	if got.Capped != (len(expect) == want) {
		t.Fatalf("%s %s: Rank(want %d, floor %v) returned %d with Capped %t", label, m.Name(), want, floor, len(expect), got.Capped)
	}
	for _, r := range left {
		if r.Degree > got.Bound {
			t.Fatalf("%s %s: Rank(want %d, floor %v) left out %v above its Bound %v", label, m.Name(), want, floor, r, got.Bound)
		}
	}
	others := p.Len()
	if p.Contains(q.Entity) {
		others--
	}
	if got.Stats.Reached() != others {
		t.Fatalf("%s %s: Rank stats %+v do not account for %d entities once each", label, m.Name(), got.Stats, others)
	}
	return got
}

// TestRankMatchesTopK: at floor 0 with no filter, Rank(want) is TopK(want)
// bit for bit — same entities, degrees and tie order, same work — for every
// want up to the whole population, whose answer is the scan's total ranking.
func TestRankMatchesTopK(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		ix, st, tree := buildRandomWorld(t, seed, 70, 16)
		for _, m := range measuresFor(t, ix.Height()) {
			for _, qe := range []trace.EntityID{0, 7, 33, 69} {
				q := st.Get(qe)
				for _, want := range []int{1, 2, 5, 10, 37, tree.Len() - 1, tree.Len()} {
					label := fmt.Sprintf("seed %d q%d", seed, qe)
					r := requireRank(t, label, tree.post, q, m, want, 0, nil)
					topk, stats, err := tree.TopK(q, want, m)
					if err != nil || !slices.Equal(r.Results, topk) || r.Stats != stats {
						t.Fatalf("%s %s want %d: Rank %v %+v, TopK %v %+v %v", label, m.Name(), want, r.Results, r.Stats, topk, stats, err)
					}
				}
			}
		}
	}
}

// TestRankBoundIsAdmissible: whatever a Rank call stops at — its cap, its
// floor, or the population — its Bound dominates the degree of every entity
// it left out, so a coordinator reading it never overstates what a shard
// withheld.
func TestRankBoundIsAdmissible(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 41, 60, 16)
	for _, m := range measuresFor(t, ix.Height()) {
		q := st.Get(5)
		full := BruteForceTopK(st, tree.Entities(), q, tree.Len(), m)
		for _, keep := range []func(trace.EntityID) bool{nil, func(e trace.EntityID) bool { return e%3 != 0 }} {
			for _, want := range []int{1, 3, 8, 20, len(full)} {
				for _, i := range []int{0, 2, 7, 19} {
					requireRank(t, "bound", tree.post, q, m, want, full[i].Degree, keep)
				}
				if r := requireRank(t, "bound", tree.post, q, m, want, 0, keep); want == len(full) && r.Bound != 0 {
					t.Fatalf("%s: a drain left Bound %v", m.Name(), r.Bound)
				}
			}
		}
	}
}

// TestRankAsksKeepLast: the filter is asked only of a candidate the bounds
// leave in, so what it admits is what the search goes on to use. Above floor
// 0 every admitted candidate is scored: the admitted calls equal Checked. At
// floor 0 the zero-fill settles degree-0 entries unscored, but asks only of
// those the selection takes in, so the admitted calls exceed Checked by at
// most the degree-0 entries a selection replaying them takes in.
func TestRankAsksKeepLast(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		ix, st, p := buildRandomPostings(t, seed, 70)
		for _, m := range measuresFor(t, ix.Height()) {
			for _, qe := range []trace.EntityID{0, 7, 33} {
				q := st.Get(qe)
				degree := map[trace.EntityID]float64{}
				full := BruteForceTopK(st, p.Entities(), q, p.Len(), m)
				for _, r := range full {
					degree[r.Entity] = r.Degree
				}
				for _, refuse := range []trace.EntityID{0, 3} {
					admit := func(e trace.EntityID) bool { return refuse == 0 || e%refuse != 0 }
					for _, want := range []int{1, 3, 11} {
						for _, floor := range []float64{0, full[2].Degree, full[5].Degree} {
							label := fmt.Sprintf("seed %d %s q%d refuse %%%d want %d floor %v", seed, m.Name(), qe, refuse, want, floor)
							var admitted []trace.EntityID
							r, err := p.Rank(q, want, floor, func(e trace.EntityID) bool {
								ok := admit(e)
								if ok {
									admitted = append(admitted, e)
								}
								return ok
							}, m)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if expect := requireRank(t, label, p, q, m, want, floor, admit); !slices.Equal(r.Results, expect.Results) {
								t.Fatalf("%s: the counting filter changed the answer: %v, want %v", label, r.Results, expect.Results)
							}
							if floor > 0 {
								if len(admitted) != r.Stats.Checked {
									t.Fatalf("%s: keep admitted %d candidates, %d were scored", label, len(admitted), r.Stats.Checked)
								}
								continue
							}
							sel, zeros := newKBest(want), 0
							for _, e := range admitted {
								res := Result{e, degree[e]}
								if res.Degree == 0 && (!sel.full() || ranksBefore(res, sel.kth())) {
									zeros++
								}
								sel.offer(res)
							}
							if extra := len(admitted) - r.Stats.Checked; extra > zeros {
								t.Fatalf("%s: keep admitted %d unscored entities, the selection took in %d at degree 0", label, extra, zeros)
							}
						}
					}
				}
			}
		}
	}
}

// TestRankFloor: under a floor Rank returns exactly the prefix of the full
// order at or above it — ties at the floor included — with a Bound below it,
// having scored no more than the search at floor 0; a floor above every
// degree returns nothing, and a negative or NaN floor is refused.
func TestRankFloor(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 23, 70, 16)
	m := measuresFor(t, ix.Height())[0]
	q := st.Get(3)
	full := BruteForceTopK(st, tree.Entities(), q, tree.Len(), m)
	unfloored := requireRank(t, "floor 0", tree.post, q, m, len(full), 0, nil)
	for _, i := range []int{0, 3, 9, 20} {
		floor := full[i].Degree
		if floor == 0 {
			continue
		}
		r := requireRank(t, "floored", tree.post, q, m, len(full), floor, nil)
		if r.Bound >= floor {
			t.Fatalf("floor %v: ended with Bound %v", floor, r.Bound)
		}
		if r.Stats.Checked > unfloored.Stats.Checked {
			t.Fatalf("floor %v: scored %d, the search at floor 0 %d", floor, r.Stats.Checked, unfloored.Stats.Checked)
		}
	}
	if r := requireRank(t, "above all", tree.post, q, m, 5, math.Nextafter(full[0].Degree, 2), nil); len(r.Results) != 0 {
		t.Fatalf("a floor above every degree returned %v", r.Results)
	}
	for _, bad := range []float64{-0.1, math.Inf(-1), math.NaN()} {
		if _, err := tree.post.Rank(q, 5, bad, nil, m); err == nil {
			t.Errorf("floor %v accepted", bad)
		}
	}
}

// TestRankByExample exercises the query-by-example shape a shard serves
// (Entity = -1, so no self-exclusion): the drain covers every indexed
// entity once, in non-increasing degree, and a filter's refusals are neither
// returned nor scored.
func TestRankByExample(t *testing.T) {
	ix, _, tree := buildRandomWorld(t, 59, 40, 16)
	rng := rand.New(rand.NewSource(99))
	var base []trace.Cell
	for i := 0; i < 12; i++ {
		base = append(base, trace.MakeCell(trace.Time(rng.Intn(40)), ix.BaseUnit(spindex.BaseID(rng.Intn(ix.NumBase())))))
	}
	q := trace.NewSequencesFromCells(ix, -1, base)
	m := measuresFor(t, ix.Height())[0]
	all := requireRank(t, "example", tree.post, q, m, tree.Len(), 0, nil)
	if len(all.Results) != tree.Len() {
		t.Fatalf("by-example drain covered %d of %d entities", len(all.Results), tree.Len())
	}
	// Zero-degree entities are offered without a degree computation, so
	// Checked can undershoot the population but never exceed it.
	if got := all.Stats.Checked; got == 0 || got > tree.Len() {
		t.Fatalf("full drain Checked = %d, want in [1, %d]", got, tree.Len())
	}
	odd := requireRank(t, "example odd", tree.post, q, m, tree.Len(), 0, func(e trace.EntityID) bool { return e%2 == 1 })
	if odd.Stats.Checked > all.Stats.Checked || len(odd.Results) != tree.Len()/2 {
		t.Fatalf("filtered drain: %d results, %d scored; unfiltered %d scored", len(odd.Results), odd.Stats.Checked, all.Stats.Checked)
	}
}

// TestRankRandomSchedules: Rank under random (want, floor, filter) — floors
// onto a result's degree, between two, past every one — returns exactly the
// scan's restricted prefix, on built and derived generations.
func TestRankRandomSchedules(t *testing.T) {
	measures := cellMeasures(t)
	for seed := int64(1); seed <= 3; seed++ {
		w := newCellWorld(t, seed)
		for gen := 0; gen < 6; gen++ {
			label := fmt.Sprintf("seed %d gen %d", seed, gen)
			for _, q := range w.queries() {
				for _, m := range measures {
					full := BruteForceTopK(w.post.src, w.post.Entities(), q, w.post.Len(), m)
					floor := 0.0
					switch j := w.rng.Intn(len(full) + 2); {
					case w.rng.Intn(4) == 0 || len(full) == 0:
					case j >= len(full):
						floor = full[0].Degree + 1
					case j+1 < len(full) && w.rng.Intn(2) == 0:
						floor = (full[j].Degree + full[j+1].Degree) / 2
					default:
						floor = full[j].Degree
					}
					var keep func(trace.EntityID) bool
					if mod := trace.EntityID(1 + w.rng.Intn(3)); mod > 1 {
						keep = func(e trace.EntityID) bool { return e%mod != 0 }
					}
					requireRank(t, label, w.post, q, m, 1+w.rng.Intn(12), floor, keep)
				}
			}
			w.derive()
		}
	}
}
