package core

import (
	"math/rand"
	"reflect"
	"testing"

	"digitaltraces/internal/sighash"
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
	newbie := trace.EntityID(1000)
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

// TestDeriveSharesUntouchedSubtrees is the whole point of path-copying: a
// level-1 subtree none of the dirty entities route through must be the same
// node, by pointer, in both generations.
func TestDeriveSharesUntouchedSubtrees(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 23, 80, 24)
	dirty := []trace.EntityID{5}
	dst := dirtyWorld(t, ix, st, dirty, 9)
	derived, err := tree.Derive(dst, dirty)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	oldSig, _ := tree.sigs.get(5)
	newSig, _ := derived.sigs.get(5)
	touched := map[uint32]bool{oldSig[0].Routing: true, newSig[0].Routing: true}
	shared, copied := 0, 0
	for _, n := range tree.root.children {
		r := n.routing
		if touched[r] {
			copied++
			if derived.root.child(r) == n {
				t.Fatalf("level-1 node %d on the dirty path is shared, must be copied", r)
			}
			continue
		}
		shared++
		if derived.root.child(r) != n {
			t.Errorf("level-1 node %d off the dirty path was copied, must be shared", r)
		}
	}
	if shared == 0 {
		t.Fatalf("degenerate world: every level-1 subtree was on the dirty path (%d copied)", copied)
	}
}

// TestDeriveFreezesReceiver: after Derive the receiver refuses mutation —
// its nodes are shared with the newer generation — while queries and further
// derivations keep working.
func TestDeriveFreezesReceiver(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 11, 40, 16)
	dst := dirtyWorld(t, ix, st, []trace.EntityID{1}, 3)
	derived, err := tree.Derive(dst, []trace.EntityID{1})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if err := tree.Insert(trace.EntityID(900)); err == nil {
		t.Fatal("Insert on a frozen tree succeeded")
	}
	if err := tree.Remove(0); err == nil {
		t.Fatal("Remove on a frozen tree succeeded")
	}
	if err := tree.Update(0); err == nil {
		t.Fatal("Update on a frozen tree succeeded")
	}
	if err := tree.Rebuild(); err == nil {
		t.Fatal("Rebuild on a frozen tree succeeded")
	}
	m := measuresFor(t, 3)[0]
	if _, _, err := tree.TopK(st.Get(0), 3, m); err != nil {
		t.Fatalf("TopK on a frozen tree failed: %v", err)
	}
	// The derived generation is mutable and derivable in turn.
	if err := derived.Update(2); err != nil {
		t.Fatalf("Update on the derived tree: %v", err)
	}
	if _, err := derived.Derive(dst.Derive(), nil); err != nil {
		t.Fatalf("second-generation Derive: %v", err)
	}
}

// TestDerivedTreeMutationIsCOW: public Insert/Remove/Update on a derived
// tree must also copy-on-write — the derived tree retains its owned set, so
// even direct mutation (not via Derive) can never write a node still shared
// with the frozen parent.
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
	newbie := trace.EntityID(2000)
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

	// The frozen parent is byte-for-byte untouched.
	if err := tree.Validate(); err != nil {
		t.Fatalf("parent invalid after derived mutation: %v", err)
	}
	if got := tree.Stats(); got != statsBefore {
		t.Fatalf("parent stats changed: %+v, was %+v", got, statsBefore)
	}
	if tree.Contains(newbie) || !tree.Contains(30) {
		t.Fatal("derived mutation leaked into the frozen parent")
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

// TestDeriveChain: many successive derivations (the auto-refresh steady
// state) stay valid and exact, including through sigTable compactions, and
// answer like a fresh build at the end.
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

// TestDeriveRejectsFullSignatureMode mirrors Clone's refusal.
func TestDeriveRejectsFullSignatureMode(t *testing.T) {
	st, _, full := buildBothModes(t, 11, 30, 16)
	if _, err := full.Derive(st, nil); err == nil {
		t.Fatal("full-signature tree accepted Derive")
	}
}

// TestDeriveMissingSequences: a dirty entity absent from the source fails
// loudly, like Insert — and a failed Derive shares nothing, so the receiver
// must NOT be frozen by it.
func TestDeriveMissingSequences(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 13, 30, 16)
	if _, err := tree.Derive(st.Derive(), []trace.EntityID{5000}); err == nil {
		t.Fatal("Derive accepted an entity with no sequences")
	}
	newbie := trace.EntityID(700)
	st2 := st.Derive()
	st2.AddRecords(newbie, []trace.Record{{Entity: newbie, Base: spindex.BaseID(0), Start: 1, End: 4}})
	tree.src = st2
	if err := tree.Insert(newbie); err != nil {
		t.Fatalf("errored Derive froze the receiver: %v", err)
	}
}

// TestSigTableLayering exercises the COW table directly: tombstones, the
// no-copy first derive, and the compaction threshold.
func TestSigTableLayering(t *testing.T) {
	digest := func(v uint64) sighash.EntitySig {
		return sighash.EntitySig{{Routing: 0, Value: v}}
	}
	root := newSigTable(8)
	for e := trace.EntityID(0); e < 8; e++ {
		root.put(e, digest(uint64(e)))
	}
	if root.len() != 8 {
		t.Fatalf("root len %d", root.len())
	}
	child := root.derive()
	if child.len() != 8 {
		t.Fatalf("child len %d", child.len())
	}
	child.del(3)
	if _, ok := child.get(3); ok {
		t.Fatal("tombstone not honored")
	}
	if _, ok := root.get(3); !ok {
		t.Fatal("tombstone leaked into the frozen base")
	}
	child.put(9, digest(9))
	if child.len() != 8 {
		t.Fatalf("len after del+put = %d, want 8", child.len())
	}
	ids := child.entities()
	if len(ids) != 8 || ids[0] != 0 || ids[len(ids)-1] != 9 {
		t.Fatalf("entities = %v", ids)
	}
	// A child whose overlay has grown past half its base compacts on derive.
	for e := trace.EntityID(20); e < 40; e++ {
		child.put(e, digest(uint64(e)))
	}
	gc := child.derive()
	if gc.base == nil || len(gc.overlay) != 0 {
		t.Fatalf("expected compacted derive: base=%v overlay=%d", gc.base != nil, len(gc.overlay))
	}
	if gc.len() != child.len() {
		t.Fatalf("compaction changed len: %d vs %d", gc.len(), child.len())
	}
	if _, ok := gc.get(3); ok {
		t.Fatal("compaction resurrected a tombstoned entity")
	}
}
