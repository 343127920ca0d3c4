package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// fixture411 rebuilds the Example 4.1.1/4.2.1 world: sp-index with
// L5=parent(L1,L2), L6=parent(L3,L4); the Table 4.1 hash family; the four
// entities of Table 4.2.
func fixture411(t testing.TB) (*spindex.Index, *sighash.TableHasher, *trace.Store) {
	t.Helper()
	b := spindex.NewBuilder(2)
	l5 := b.AddRoot()
	l6 := b.AddRoot()
	b.AddChild(l5)
	b.AddChild(l5)
	b.AddChild(l6)
	b.AddChild(l6)
	ix, err := b.Build()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	h1 := []uint64{2, 5, 4, 7, 8, 1, 6, 3}
	h2 := []uint64{8, 6, 4, 2, 3, 5, 1, 7}
	th := sighash.NewTableHasher(ix, [][]uint64{h1, h2}, 9)
	st := trace.NewStore(ix)
	mk := func(e trace.EntityID, cells ...[2]int) {
		var base []trace.Cell
		for _, c := range cells {
			base = append(base, trace.MakeCell(trace.Time(c[0]), ix.BaseUnit(spindex.BaseID(c[1]))))
		}
		st.Put(trace.NewSequencesFromCells(ix, e, base))
	}
	mk(0, [2]int{0, 1}, [2]int{1, 0}) // ea: T1L2, T2L1
	mk(1, [2]int{0, 0}, [2]int{1, 1}) // eb: T1L1, T2L2
	mk(2, [2]int{0, 2}, [2]int{1, 0}) // ec: T1L3, T2L1
	mk(3, [2]int{0, 3}, [2]int{1, 3}) // ed: T1L4, T2L4
	return ix, th, st
}

// TestMinSigTreeFigure41 checks the worked MinSigTree of Figure 4.1, with
// ed's placement corrected for the Table 4.3 typo (its level-2 signature is
// ⟨3,2⟩ per Table 4.1, so ed routes to h1 with value 3 — the thesis figure
// shows the value 7 implied by its misprinted table). The {ea,ec} / {eb}
// split under N2 and all group values match the thesis exactly.
func TestMinSigTreeFigure41(t *testing.T) {
	ix, th, st := fixture411(t)
	tree, err := Build(ix, th, st, []trace.EntityID{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Len() != 4 {
		t.Fatalf("Len = %d", tree.Len())
	}
	// Root: N1 (routing h1=idx0, value 3) = {ed};
	//       N2 (routing h2=idx1, value 2) = {ea,eb,ec}.
	if len(tree.root.children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tree.root.children))
	}
	n1 := tree.root.child(0)
	n2 := tree.root.child(1)
	if n1 == nil || n2 == nil {
		t.Fatalf("missing root children: %v", tree.root.children)
	}
	if n1.value != 3 || n1.count != 1 {
		t.Errorf("N1 = (value %d, count %d), want (3, 1)", n1.value, n1.count)
	}
	if n2.value != 2 || n2.count != 3 {
		t.Errorf("N2 = (value %d, count %d), want (2, 3)", n2.value, n2.count)
	}
	// Level 2 under N2: N21 (h1, value 4) = {ea, ec}; N22 (h2, value 5) = {eb}.
	n21 := n2.child(0)
	n22 := n2.child(1)
	if n21 == nil || n21.value != 4 || len(n21.entities) != 2 {
		t.Fatalf("N21 = %+v, want value 4 holding {ea,ec}", n21)
	}
	if got := map[trace.EntityID]bool{n21.entities[0]: true, n21.entities[1]: true}; !got[0] || !got[2] {
		t.Errorf("N21 entities = %v, want {0, 2}", n21.entities)
	}
	if n22 == nil || n22.value != 5 || len(n22.entities) != 1 || n22.entities[0] != 1 {
		t.Fatalf("N22 = %+v, want value 5 holding {eb}", n22)
	}
	// Level 2 under N1: single leaf holding ed with value 3 (corrected).
	if len(n1.children) != 1 {
		t.Fatalf("N1 has %d children, want 1", len(n1.children))
	}
	for _, leaf := range n1.children {
		if leaf.value != 3 || len(leaf.entities) != 1 || leaf.entities[0] != 3 {
			t.Errorf("N1 leaf = %+v, want value 3 holding {ed}", leaf)
		}
	}
	st2 := tree.Stats()
	if st2.Entities != 4 || st2.Leaves != 3 || st2.Nodes != 5 {
		t.Errorf("Stats = %+v, want 4 entities, 5 nodes, 3 leaves", st2)
	}
	if st2.MaxLeafSize != 2 {
		t.Errorf("MaxLeafSize = %d, want 2", st2.MaxLeafSize)
	}
}

// TestSearchExample521 runs the Example 5.2.1 query: top-1 for ec under
// deg = 0.1·dice¹ + 0.9·dice². The answer is ea; from the thesis' own
// tables the exact degree is 0.25 (the thesis prints 0.15 — each level
// shares exactly 1 of 2+2 cells, so 0.1/4 + 0.9/4 = 0.25).
func TestSearchExample521(t *testing.T) {
	ix, th, st := fixture411(t)
	tree, err := Build(ix, th, st, []trace.EntityID{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := adm.NewDiceExample()
	// The thesis walks through Algorithm 2: the signatures prune ed's branch,
	// which the level-1 bounds TopK orders its candidates by cannot.
	res, stats, err := tree.SignatureTopK(st.Get(2), 1, m)
	if err != nil {
		t.Fatalf("SignatureTopK: %v", err)
	}
	if got, _, _ := tree.TopK(st.Get(2), 1, m); !slices.Equal(got, res) {
		t.Fatalf("TopK = %v, SignatureTopK = %v", got, res)
	}
	if len(res) != 1 || res[0].Entity != 0 {
		t.Fatalf("top-1 for ec = %v, want ea (entity 0)", res)
	}
	if res[0].Degree != 0.25 {
		t.Errorf("deg(ea,ec) = %v, want 0.25", res[0].Degree)
	}
	// The search must not have checked every entity: ed's branch is
	// prunable exactly as the thesis walks through.
	if stats.Checked >= 3 {
		t.Errorf("checked %d entities; pruning should skip some of {eb, ed}", stats.Checked)
	}
}

// buildRandomWorld builds a MinSigTree of nh hash functions over a random
// population (randomWorld).
func buildRandomWorld(t testing.TB, seed int64, entities, nh int) (*spindex.Index, *trace.Store, *Tree) {
	t.Helper()
	ix, st, ids := randomWorld(seed, entities)
	fam, err := sighash.NewFamily(ix, 48, nh, uint64(seed)+1)
	if err != nil {
		t.Fatalf("NewFamily: %v", err)
	}
	tree, err := Build(ix, fam, st, ids)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, st, tree
}

// buildRandomPostings indexes randomWorld's population in postings alone.
func buildRandomPostings(t testing.TB, seed int64, entities int) (*spindex.Index, *trace.Store, *Postings) {
	t.Helper()
	ix, st, ids := randomWorld(seed, entities)
	p, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatalf("BuildPostings: %v", err)
	}
	return ix, st, p
}

// randomWorld is a random population over 48 hours of a 3-level sp-index of
// 12 base units, IDs 0 … entities-1.
func randomWorld(seed int64, entities int) (*spindex.Index, *trace.Store, []trace.EntityID) {
	rng := rand.New(rand.NewSource(seed))
	ix := spindex.NewUniform(3, []int{3, 4}) // 12 base units
	const horizon = 48
	st := trace.NewStore(ix)
	ids := make([]trace.EntityID, entities)
	for i := range ids {
		e := trace.EntityID(i)
		ids[i] = e
		var recs []trace.Record
		for j := 0; j < 1+rng.Intn(10); j++ {
			s := trace.Time(rng.Intn(horizon - 3))
			recs = append(recs, trace.Record{
				Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())),
				Start: s, End: s + 1 + trace.Time(rng.Intn(3)),
			})
		}
		st.AddRecords(e, recs)
	}
	return ix, st, ids
}

func measuresFor(t testing.TB, levels int) []adm.Measure {
	t.Helper()
	paper, err := adm.NewPaperADM(levels, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := adm.NewJaccardADM(levels)
	if err != nil {
		t.Fatal(err)
	}
	steep, err := adm.NewPaperADM(levels, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []adm.Measure{paper, jac, steep}
}

// TestTopKMatchesBruteForce is the central correctness property: for random
// worlds, measures, and k, the MinSigTree answers have exactly the
// brute-force degree profile. (Entity sets may differ only within degree
// ties, which both sides are free to break.)
func TestTopKMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		_, st, tree := buildRandomWorld(t, seed, 40, 12)
		for _, m := range measuresFor(t, 3) {
			for _, k := range []int{1, 3, 10, 39, 100} {
				q := st.Get(trace.EntityID(int(seed) % 40))
				got, stats, err := tree.TopK(q, k, m)
				if err != nil {
					t.Fatalf("seed %d: TopK: %v", seed, err)
				}
				want := BruteForceTopK(st, st.Entities(), q, k, m)
				if len(got) != len(want) {
					t.Fatalf("seed %d m=%s k=%d: %d results, want %d", seed, m.Name(), k, len(got), len(want))
				}
				for i := range got {
					if got[i].Degree != want[i].Degree {
						t.Fatalf("seed %d m=%s k=%d: degree[%d] = %v, want %v",
							seed, m.Name(), k, i, got[i].Degree, want[i].Degree)
					}
				}
				if stats.Checked > tree.Len() {
					t.Fatalf("checked %d > population %d", stats.Checked, tree.Len())
				}
			}
		}
	}
}

// TestUpperBoundDominatesSubtree is Theorem 4 as an executable property: for
// every entity, expanding candidates along the entity's own signature path
// must keep the upper bound at or above the entity's exact degree, for every
// measure and at every level (and bounds must tighten monotonically,
// Theorem 3).
func TestUpperBoundDominatesSubtree(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, st, tree := buildRandomWorld(t, seed, 30, 8)
		for _, m := range measuresFor(t, 3) {
			for _, qe := range st.Entities()[:10] {
				q := st.Get(qe)
				for _, e := range st.Entities() {
					if e == qe {
						continue
					}
					deg := m.Degree(q, st.Get(e))
					sig := tree.sigs[e]
					tr, cand := tree.newTraversal(q, m)
					for l := 1; l <= tree.m; l++ {
						child := cand.n.child(sig[l-1].routing)
						if child == nil {
							t.Fatalf("entity %d path broken at level %d", e, l)
						}
						next := tr.expand(cand, child)
						if next.ub > cand.ub+1e-12 {
							t.Fatalf("bound grew along path: %v -> %v (level %d)", cand.ub, next.ub, l)
						}
						cand = next
						if cand.ub < deg-1e-9 {
							t.Fatalf("seed %d m=%s: UB %v < deg(q=%d, e=%d) %v at level %d",
								seed, m.Name(), cand.ub, qe, e, deg, l)
						}
					}
				}
			}
		}
	}
}

// TestIncrementalEqualsRebuilt: after a random interleaving of inserts,
// removes and updates, queries through the incrementally maintained tree
// match a tree rebuilt from scratch, and both match brute force.
func TestIncrementalEqualsRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ix, st, tree := buildRandomWorld(t, 7, 50, 12)
	const horizon = 48
	m := measuresFor(t, 3)[0]
	present := make(map[trace.EntityID]bool)
	for _, e := range st.Entities() {
		present[e] = true
	}
	nextID := trace.EntityID(50)
	for op := 0; op < 120; op++ {
		switch rng.Intn(3) {
		case 0: // insert a brand-new entity
			e := nextID
			nextID++
			var recs []trace.Record
			for j := 0; j < 1+rng.Intn(8); j++ {
				s := trace.Time(rng.Intn(horizon - 2))
				recs = append(recs, trace.Record{Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())), Start: s, End: s + 1})
			}
			st.AddRecords(e, recs)
			if err := tree.Insert(e); err != nil {
				t.Fatalf("Insert(%d): %v", e, err)
			}
			present[e] = true
		case 1: // remove a random present entity
			for e := range present {
				if err := tree.Remove(e); err != nil {
					t.Fatalf("Remove(%d): %v", e, err)
				}
				delete(present, e)
				break
			}
		case 2: // update a random present entity with a fresh trace
			for e := range present {
				var recs []trace.Record
				for j := 0; j < 1+rng.Intn(8); j++ {
					s := trace.Time(rng.Intn(horizon - 2))
					recs = append(recs, trace.Record{Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())), Start: s, End: s + 1})
				}
				st.AddRecords(e, recs)
				if err := tree.Update(e); err != nil {
					t.Fatalf("Update(%d): %v", e, err)
				}
				break
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after ops: %v", err)
	}
	rebuilt, err := Build(ix, tree.hasher, st, tree.Entities())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	live := tree.Entities()
	if len(live) == 0 {
		t.Skip("all entities removed by random ops")
	}
	for trial := 0; trial < 10; trial++ {
		q := st.Get(live[rng.Intn(len(live))])
		a, _, err := tree.TopK(q, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rebuilt.TopK(q, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForceTopK(st, live, q, 5, m)
		for i := range want {
			if a[i].Degree != want[i].Degree || b[i].Degree != want[i].Degree {
				t.Fatalf("trial %d: degrees diverge: inc=%v rebuilt=%v brute=%v", trial, a, b, want)
			}
		}
	}
	// A Derive with no dirt replays to tight signatures.
	replayed, err := tree.Derive(st, nil)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if err := replayed.Validate(); err != nil {
		t.Fatalf("Validate after the replay: %v", err)
	}
}

func TestInsertRemoveErrors(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 3, 10, 4)
	if err := tree.Insert(0); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := tree.Insert(999); err == nil {
		t.Error("insert of entity missing from source accepted")
	}
	if err := tree.Remove(999); err == nil {
		t.Error("remove of unknown entity accepted")
	}
	if !tree.Contains(0) || tree.Contains(999) {
		t.Error("Contains mismatch")
	}
	if err := tree.Remove(0); err != nil {
		t.Errorf("Remove(0): %v", err)
	}
	if tree.Contains(0) {
		t.Error("entity still present after Remove")
	}
	if tree.Len() != 9 {
		t.Errorf("Len = %d, want 9", tree.Len())
	}
	// Update of a never-indexed entity inserts it.
	if err := tree.Update(0); err != nil {
		t.Errorf("Update-as-insert: %v", err)
	}
	_ = st
}

func TestTopKErrors(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 5, 8, 4)
	m := measuresFor(t, 3)[0]
	q := st.Get(0)
	if _, _, err := tree.TopK(q, 0, m); err == nil {
		t.Error("k=0 accepted")
	}
	wrongIx := spindex.NewUniform(2, []int{4})
	wq := trace.NewSequencesFromCells(wrongIx, 77, []trace.Cell{trace.MakeCell(0, wrongIx.BaseUnit(0))})
	if _, _, err := tree.TopK(wq, 1, m); err == nil {
		t.Error("query with wrong level count accepted")
	}
	m2, _ := adm.NewPaperADM(2, 2, 2)
	if _, _, err := tree.TopK(q, 1, m2); err == nil {
		t.Error("measure with wrong level count accepted")
	}
	_ = ix
}

// TestQueryEntityExcluded: the query entity never appears among its own
// answers (Definition 4: Qk ⊆ E − {ep}).
func TestQueryEntityExcluded(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 11, 20, 8)
	m := measuresFor(t, 3)[0]
	for _, e := range st.Entities() {
		res, _, err := tree.TopK(st.Get(e), 19, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Entity == e {
				t.Fatalf("query entity %d returned as its own answer", e)
			}
		}
		if len(res) != 19 {
			t.Fatalf("want 19 answers, got %d", len(res))
		}
	}
}

// TestExternalQueryEntity: query-by-example with sequences not in the index
// still returns exact top-k over the population.
func TestExternalQueryEntity(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 13, 25, 8)
	m := measuresFor(t, 3)[0]
	q := trace.NewSequencesFromCells(ix, 10_000, []trace.Cell{
		trace.MakeCell(3, ix.BaseUnit(0)),
		trace.MakeCell(4, ix.BaseUnit(5)),
		trace.MakeCell(9, ix.BaseUnit(11)),
	})
	got, _, err := tree.TopK(q, 7, m)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceTopK(st, st.Entities(), q, 7, m)
	for i := range want {
		if got[i].Degree != want[i].Degree {
			t.Fatalf("external query degrees diverge at %d: %v vs %v", i, got, want)
		}
	}
}

// TestDeterminism: building and querying twice yields identical output.
func TestDeterminism(t *testing.T) {
	_, st1, tree1 := buildRandomWorld(t, 21, 30, 8)
	_, st2, tree2 := buildRandomWorld(t, 21, 30, 8)
	m := measuresFor(t, 3)[0]
	for e := 0; e < 5; e++ {
		r1, s1, err1 := tree1.TopK(st1.Get(trace.EntityID(e)), 5, m)
		r2, s2, err2 := tree2.TopK(st2.Get(trace.EntityID(e)), 5, m)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("nondeterministic results: %v vs %v", r1, r2)
			}
		}
		if s1 != s2 {
			t.Fatalf("nondeterministic stats: %+v vs %+v", s1, s2)
		}
	}
}

// TestPruningImprovesWithHashFunctions reproduces the Figure 7.3 trend at
// unit-test scale: more hash functions check fewer entities.
func TestPruningImprovesWithHashFunctions(t *testing.T) {
	checked := map[int]int{}
	for _, nh := range []int{2, 64} {
		_, st, tree := buildRandomWorld(t, 31, 120, nh)
		m := measuresFor(t, 3)[0]
		total := 0
		for e := 0; e < 20; e++ {
			_, stats, err := tree.SignatureTopK(st.Get(trace.EntityID(e)), 1, m)
			if err != nil {
				t.Fatal(err)
			}
			total += stats.Checked
		}
		checked[nh] = total
	}
	if checked[64] > checked[2] {
		t.Errorf("64 hash functions checked %d entities, 2 functions %d — expected pruning to improve",
			checked[64], checked[2])
	}
}

func TestStatsPE(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 41, 30, 16)
	m := measuresFor(t, 3)[0]
	_, stats, err := tree.TopK(st.Get(0), 3, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PE < 0 || stats.PE > 1 {
		t.Errorf("PE = %v outside [0,1]", stats.PE)
	}
	if stats.Pruned < 0 || stats.Pruned > 1 {
		t.Errorf("Pruned = %v outside [0,1]", stats.Pruned)
	}
	wantPE := float64(stats.Checked-3) / 29
	if wantPE < 0 {
		wantPE = 0
	}
	if stats.PE != wantPE {
		t.Errorf("PE = %v, want %v (Definition 5)", stats.PE, wantPE)
	}
}

func TestSingleLevelIndex(t *testing.T) {
	// m = 1: roots are the base units; the MinSigTree degenerates to one
	// grouping level and must stay exact.
	ix := spindex.NewBuilder(1)
	for i := 0; i < 6; i++ {
		ix.AddRoot()
	}
	sp, err := ix.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(sp)
	rng := rand.New(rand.NewSource(2))
	var ids []trace.EntityID
	for e := trace.EntityID(0); e < 15; e++ {
		var cells []trace.Cell
		for j := 0; j < 1+rng.Intn(6); j++ {
			cells = append(cells, trace.MakeCell(trace.Time(rng.Intn(10)), sp.BaseUnit(spindex.BaseID(rng.Intn(6)))))
		}
		st.Put(trace.NewSequencesFromCells(sp, e, cells))
		ids = append(ids, e)
	}
	fam, err := sighash.NewFamily(sp, 10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(sp, fam, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	m, err := adm.NewPaperADM(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tree.TopK(st.Get(0), 4, m)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceTopK(st, ids, st.Get(0), 4, m)
	for i := range want {
		if got[i].Degree != want[i].Degree {
			t.Fatalf("m=1 degrees diverge: %v vs %v", got, want)
		}
	}
}

// floorMeasure lifts every degree of an inner measure onto [floor, 1]: an
// entity that shares no cell with the query scores floor, so the measure's
// zero-overlap bound is floor too — admissible, and not 0.
type floorMeasure struct {
	adm.Measure
	floor float64
}

func (m floorMeasure) Name() string { return fmt.Sprintf("floor(%g)", m.floor) }

func (m floorMeasure) Degree(a, b *trace.Sequences) float64 {
	return m.floor + (1-m.floor)*m.Measure.Degree(a, b)
}

func (m floorMeasure) UpperBound(surviving, qSize, bSize []int) float64 {
	return m.floor + (1-m.floor)*m.Measure.UpperBound(surviving, qSize, bSize)
}

// TestPositiveFloorMeasure: the postings refuse, by name, a measure under
// which an entity posted nowhere the query is can still score; Algorithm 2
// serves it, equal to the scan.
func TestPositiveFloorMeasure(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 61, 40, 16)
	for _, inner := range measuresFor(t, 3) {
		m := floorMeasure{inner, 0.25}
		q := st.Get(3)
		if _, _, err := tree.post.TopK(q, 5, m); err == nil || !strings.Contains(err.Error(), m.Name()) {
			t.Errorf("Postings.TopK under %s: %v", m.Name(), err)
		}
		if _, err := tree.post.Rank(q, 5, 0.5, nil, nil, m); err == nil || !strings.Contains(err.Error(), m.Name()) {
			t.Errorf("Postings.Rank under %s: %v", m.Name(), err)
		}
		for _, k := range []int{1, 5, 39, 60} {
			for _, e := range []trace.EntityID{0, 3, 17} {
				q := st.Get(e)
				got, _, err := tree.SignatureTopK(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				if want := BruteForceTopK(st, tree.Entities(), q, k, m); !slices.Equal(got, want) {
					t.Fatalf("SignatureTopK(%d, k=%d) under %s:\n got  %v\n want %v", e, k, m.Name(), got, want)
				}
			}
		}
	}
}

// TestBruteForceTopKEdges: the scan keeps its contract at the edges — k = 0
// is an empty, non-nil answer and a k beyond the population returns everyone
// but the query entity, in canonical order.
func TestBruteForceTopKEdges(t *testing.T) {
	_, st, _ := buildRandomWorld(t, 5, 12, 6)
	m := measuresFor(t, 3)[0]
	q := st.Get(0)
	if got := BruteForceTopK(st, st.Entities(), q, 0, m); got == nil || len(got) != 0 {
		t.Errorf("k=0: got %#v, want an empty non-nil slice", got)
	}
	all := BruteForceTopK(st, st.Entities(), q, 100, m)
	if len(all) != st.Len()-1 {
		t.Fatalf("k=100 over %d entities: %d results", st.Len(), len(all))
	}
	for i := 1; i < len(all); i++ {
		if best := newKBest(0, nil); !best.before(all[i-1], all[i]) {
			t.Errorf("results %d and %d out of canonical order: %v", i-1, i, all)
		}
	}
}
