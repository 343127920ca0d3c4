package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// dirtyWorld mutates the sequences of the given entities in a derived store
// (plus optionally adds new entities) and returns the derived store.
func dirtyWorld(t *testing.T, ix *spindex.Index, st *trace.Store, dirty []trace.EntityID, seed int64) *trace.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dst := st.Derive()
	for _, e := range dirty {
		var recs []trace.Record
		for j := 0; j < 1+rng.Intn(6); j++ {
			s := trace.Time(rng.Intn(44))
			recs = append(recs, trace.Record{
				Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())),
				Start: s, End: s + 1 + trace.Time(rng.Intn(3)),
			})
		}
		dst.AddRecords(e, recs)
	}
	return dst
}

// TestDeriveMatchesBuild: a derived generation answers bit-identically to a
// tree built from scratch over the post-update data, for every measure — the
// structural sharing changes cost, never answers.
func TestDeriveMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ix, st, tree := buildRandomWorld(t, seed, 60, 16)
		dirty := []trace.EntityID{3, 17, 29, 42, 55}
		dst := dirtyWorld(t, ix, st, dirty, seed+100)
		derived, err := tree.Derive(dst, dirty)
		if err != nil {
			t.Fatalf("Derive: %v", err)
		}
		if err := derived.Validate(); err != nil {
			t.Fatalf("derived invalid: %v", err)
		}
		fresh, err := Build(ix, tree.Hasher(), dst, derived.Entities())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for _, m := range measuresFor(t, 3) {
			for e := trace.EntityID(0); e < 12; e++ {
				want, _, err := fresh.TopK(dst.Get(e), 5, m)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := derived.TopK(dst.Get(e), 5, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d entity %d: derived answers %v, fresh build %v", seed, e, got, want)
				}
			}
		}
	}
}

// TestDeriveIsolation: deriving and the derived generation's contents leave
// the receiver byte-for-byte untouched — same stats, same answers — because
// pinned queries may still be searching it.
func TestDeriveIsolation(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 31, 60, 24)
	m := measuresFor(t, 3)[0]
	before := make([][]Result, 12)
	for e := range before {
		res, _, err := tree.TopK(st.Get(trace.EntityID(e)), 4, m)
		if err != nil {
			t.Fatal(err)
		}
		before[e] = res
	}
	statsBefore := tree.Stats()

	dirty := make([]trace.EntityID, 0, 20)
	for e := trace.EntityID(0); e < 20; e++ {
		dirty = append(dirty, e)
	}
	dst := dirtyWorld(t, ix, st, dirty, 7)
	newbie := trace.EntityID(dst.Len())
	dst.AddRecords(newbie, []trace.Record{{Entity: newbie, Base: 0, Start: 1, End: 5}})
	derived, err := tree.Derive(dst, append(dirty, newbie))
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if err := derived.Validate(); err != nil {
		t.Fatalf("derived invalid: %v", err)
	}

	if err := tree.Validate(); err != nil {
		t.Fatalf("original invalid after Derive: %v", err)
	}
	if got := tree.Stats(); got != statsBefore {
		t.Fatalf("original stats changed: %+v, was %+v", got, statsBefore)
	}
	if tree.Contains(newbie) {
		t.Fatal("insert during Derive leaked into the original")
	}
	if !derived.Contains(newbie) {
		t.Fatal("derived generation lost the new entity")
	}
	for e := range before {
		res, _, err := tree.TopK(st.Get(trace.EntityID(e)), 4, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, before[e]) {
			t.Fatalf("entity %d: original's answer changed after Derive: %v, was %v", e, res, before[e])
		}
	}
}

// TestDerivedTreeMutationIsCOW: public Insert/Remove/Update on a derived
// tree never reach its parent — the derived tree's nodes are its own, and its
// postings share the parent's sealed base copy-on-write.
func TestDerivedTreeMutationIsCOW(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 53, 60, 24)
	m := measuresFor(t, 3)[0]
	before := make([][]Result, 10)
	for e := range before {
		res, _, err := tree.TopK(st.Get(trace.EntityID(e)), 4, m)
		if err != nil {
			t.Fatal(err)
		}
		before[e] = res
	}
	statsBefore := tree.Stats()

	dst := dirtyWorld(t, ix, st, []trace.EntityID{1}, 5)
	derived, err := tree.Derive(dst, []trace.EntityID{1})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	// Mutate the derived tree directly through the public API: churn
	// existing entities, insert a new one, remove another.
	for e := trace.EntityID(10); e < 25; e++ {
		dst.AddRecords(e, []trace.Record{{Entity: e, Base: spindex.BaseID(int(e) % ix.NumBase()), Start: 3, End: 7}})
		if err := derived.Update(e); err != nil {
			t.Fatalf("Update(%d): %v", e, err)
		}
	}
	newbie := trace.EntityID(dst.Len())
	dst.AddRecords(newbie, []trace.Record{{Entity: newbie, Base: 1, Start: 2, End: 6}})
	if err := derived.Insert(newbie); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := derived.Remove(30); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := derived.Validate(); err != nil {
		t.Fatalf("derived invalid after public mutation: %v", err)
	}

	// The parent is byte-for-byte untouched.
	if err := tree.Validate(); err != nil {
		t.Fatalf("parent invalid after derived mutation: %v", err)
	}
	if got := tree.Stats(); got != statsBefore {
		t.Fatalf("parent stats changed: %+v, was %+v", got, statsBefore)
	}
	if tree.Contains(newbie) || !tree.Contains(30) {
		t.Fatal("derived mutation leaked into the parent")
	}
	for e := range before {
		res, _, err := tree.TopK(st.Get(trace.EntityID(e)), 4, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, before[e]) {
			t.Fatalf("entity %d: parent's answer changed after derived mutation", e)
		}
	}
}

// TestDeriveChain: many successive derivations stay valid and exact,
// including through the postings' compactions, and answer like a fresh build
// at the end.
func TestDeriveChain(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 47, 50, 16)
	m := measuresFor(t, 3)[0]
	rng := rand.New(rand.NewSource(99))
	cur, curStore := tree, st
	for gen := 0; gen < 20; gen++ {
		var dirty []trace.EntityID
		for len(dirty) < 4 {
			dirty = append(dirty, trace.EntityID(rng.Intn(50)))
		}
		dst := dirtyWorld(t, ix, curStore, dirty, int64(gen))
		next, err := cur.Derive(dst, dirty)
		if err != nil {
			t.Fatalf("gen %d: Derive: %v", gen, err)
		}
		if err := next.Validate(); err != nil {
			t.Fatalf("gen %d: invalid: %v", gen, err)
		}
		cur, curStore = next, dst
	}
	fresh, err := Build(ix, tree.Hasher(), curStore, cur.Entities())
	if err != nil {
		t.Fatalf("final Build: %v", err)
	}
	for e := trace.EntityID(0); e < 10; e++ {
		want, _, err := fresh.TopK(curStore.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cur.TopK(curStore.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entity %d after 20 generations: %v, fresh build %v", e, got, want)
		}
	}
}

// TestDeriveRejectsFullSignatureMode: the ablation configuration keeps no
// replayable digest of its coordinates and must refuse loudly.
func TestDeriveRejectsFullSignatureMode(t *testing.T) {
	st, _, full := buildBothModes(t, 11, 30, 16)
	if _, err := full.Derive(st, nil); err == nil {
		t.Fatal("full-signature tree accepted Derive")
	}
}

// TestDeriveMissingSequences: a dirty entity absent from the source fails
// loudly, like Insert, and leaves the receiver as it was — still mutable.
func TestDeriveMissingSequences(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 13, 30, 16)
	if _, err := tree.Derive(st.Derive(), []trace.EntityID{5000}); err == nil {
		t.Fatal("Derive accepted an entity with no sequences")
	}
	if _, err := tree.post.Derive(st.Derive(), []trace.EntityID{5000}); err == nil {
		t.Fatal("Postings.Derive accepted an entity with no sequences")
	}
	st2 := st.Derive()
	newbie := trace.EntityID(st2.Len())
	st2.AddRecords(newbie, []trace.Record{{Entity: newbie, Base: spindex.BaseID(0), Start: 1, End: 4}})
	tree.post.src = st2
	if err := tree.Insert(newbie); err != nil {
		t.Fatalf("Insert after a refused Derive: %v", err)
	}
}

// TestDeriveWithoutDirtAnswersIdentically: a Derive with no dirt is a pure
// replay of the stored digests: same shape, same answers, for every measure,
// by both searches.
func TestDeriveWithoutDirtAnswersIdentically(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 23, 70, 24)
	replay, err := tree.Derive(st, nil)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if err := replay.Validate(); err != nil {
		t.Fatalf("replay invalid: %v", err)
	}
	if got, want := replay.Stats(), tree.Stats(); got != want {
		t.Fatalf("replay stats %+v != original %+v", got, want)
	}
	for _, m := range measuresFor(t, 3) {
		for e := trace.EntityID(0); e < 10; e++ {
			for name, search := range map[string]func(*Tree) ([]Result, SearchStats, error){
				"TopK":          func(tr *Tree) ([]Result, SearchStats, error) { return tr.TopK(st.Get(e), 5, m) },
				"SignatureTopK": func(tr *Tree) ([]Result, SearchStats, error) { return tr.SignatureTopK(st.Get(e), 5, m) },
			} {
				want, ws, err := search(tree)
				if err != nil {
					t.Fatal(err)
				}
				got, gs, err := search(replay)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || gs != ws {
					t.Fatalf("%s, entity %d: replay %v %+v, original %v %+v", name, e, got, gs, want, ws)
				}
			}
		}
	}
}

// TestDeriveReplayTightensAfterRemoves: Remove leaves group coordinates
// conservatively low; the replay recomputes them from the remaining members'
// digests, so the derived tree validates, answers identically and prunes at
// least as well.
func TestDeriveReplayTightensAfterRemoves(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 41, 50, 24)
	for e := trace.EntityID(0); e < 10; e++ {
		if err := tree.Remove(e); err != nil {
			t.Fatal(err)
		}
	}
	replay, err := tree.Derive(st, nil)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if err := replay.Validate(); err != nil {
		t.Fatalf("replay invalid: %v", err)
	}
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(10); e < 20; e++ {
		want, wStats, err := tree.SignatureTopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		got, gStats, err := replay.SignatureTopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entity %d: replay answers %v, original %v", e, got, want)
		}
		if gStats.Checked > wStats.Checked {
			t.Errorf("entity %d: tight replay checked %d > loose original's %d", e, gStats.Checked, wStats.Checked)
		}
	}
}

// TestDeriveChainCostStaysFlat: a derive costs O(dirty), not O(what the chain
// wrote since the last reseal). Along 1 000 derives of 8 dirty entities each
// over 20 000 entities — a chain no reseal interrupts — the bytes Store.Derive
// and Postings.Derive allocate in the median derive of the last 64 stay
// within twice the median of the first 64; an overlay copied whole on every
// derive grows every derive's bytes with the chain. The median, not the sum:
// the copy-on-write layer's merge of its largest level is O(written) in the
// one derive that makes it (O(log n) copies per entry amortized), so whether
// a 64-derive window's sum holds one is a matter of where it falls.
func TestDeriveChainCostStaysFlat(t *testing.T) {
	const entities, chain, batch, window = 20000, 1000, 8, 64
	ix := forest(64)
	rng := rand.New(rand.NewSource(3))
	cell := func() trace.Cell {
		return trace.MakeCell(trace.Time(rng.Intn(14*24)), ix.BaseUnit(spindex.BaseID(rng.Intn(ix.NumBase()))))
	}
	st := trace.NewStore(ix)
	ids := make([]trace.EntityID, entities)
	for i := range ids {
		ids[i] = trace.EntityID(i)
		cells := make([]trace.Cell, 8)
		for j := range cells {
			cells[j] = cell()
		}
		st.Put(trace.NewSequencesFromCells(ix, ids[i], cells))
	}
	post, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	var first, last []uint64
	var m0, m1, m2, m3 runtime.MemStats
	for i := 0; i < chain; i++ {
		measured := i < window || i >= chain-window
		if measured {
			runtime.ReadMemStats(&m0)
		}
		next := st.Derive()
		if measured {
			runtime.ReadMemStats(&m1)
		}
		dirty := make([]trace.EntityID, batch)
		for j := range dirty {
			dirty[j] = ids[rng.Intn(entities)]
			next.Put(trace.NewSequencesFromCells(ix, dirty[j], append(slices.Clone(next.Get(dirty[j]).Base()), cell(), cell())))
		}
		if measured {
			runtime.ReadMemStats(&m2)
		}
		if post, err = post.Derive(next, dirty); err != nil {
			t.Fatal(err)
		}
		if measured {
			runtime.ReadMemStats(&m3)
			bytes := m1.TotalAlloc - m0.TotalAlloc + m3.TotalAlloc - m2.TotalAlloc
			if i < window {
				first = append(first, bytes)
			} else {
				last = append(last, bytes)
			}
		}
		st = next
	}
	median := func(xs []uint64) uint64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	if f, l := median(first), median(last); l > 2*f {
		t.Fatalf("the median of the last %d derives allocated %d bytes, of the first %d %d: %.1fx", window, l, window, f, float64(l)/float64(f))
	}
}

// TestZeroFillAllocsFlatInFreshEntities: settling the zeros of a search that
// reaches bound 0 (frontier.rest, which walks Postings.each) allocates as
// much with 100 entities derived in since the entity table was sealed as with
// none: the walk reads the ID range in place, with no per-call copy or sort
// of the IDs written since.
func TestZeroFillAllocsFlatInFreshEntities(t *testing.T) {
	ix := forest(4)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	const sealed, k = 300, 10
	st := trace.NewStore(ix)
	var ids []trace.EntityID
	for e := range trace.EntityID(sealed) {
		ids = append(ids, e)
		if e < 3 {
			st.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(1, 0)})) // the query's only candidates
			continue
		}
		st.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(trace.Time(10+e%20), int(e%16))}))
	}
	built, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	q := trace.NewSequencesFromCells(ix, -1, []trace.Cell{at(1, 0), at(2, 1)})
	m := cellMeasures(t)[0]
	zeroFill := func(fresh int) float64 {
		t.Helper()
		dst := st.Derive()
		var dirty []trace.EntityID
		for i := range fresh {
			e := trace.EntityID(sealed + i)
			dst.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(trace.Time(10+i%20), i%16)}))
			dirty = append(dirty, e)
		}
		p, err := built.Derive(dst, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.base) != len(built.base) || p.added.Writes() != fresh {
			t.Fatalf("fixture: %d fresh entities resealed the entity table", fresh)
		}
		f, err := p.newFrontier(q, m)
		if err != nil {
			t.Fatal(err)
		}
		defer f.release()
		best := newKBest(k)
		for ub, _ := f.peek(); ub > 0; ub, _ = f.peek() {
			if err := f.visit(&best); err != nil {
				t.Fatal(err)
			}
		}
		if f.stats.Checked != 3 {
			t.Fatalf("fixture: the search scored %d candidates before bound 0, want 3", f.stats.Checked)
		}
		settled := 0
		allocs := testing.AllocsPerRun(20, func() { f.rest(func(trace.EntityID) { settled++ }) })
		if want := 21 * (sealed + fresh - 3); settled != want {
			t.Fatalf("%d fresh: rest settled %d entities over 21 calls, want %d", fresh, settled, want)
		}
		return allocs
	}
	if none, hundred := zeroFill(0), zeroFill(100); none != hundred {
		t.Fatalf("zero-fill allocates %v times with no fresh entities, %v with 100", none, hundred)
	}
}
