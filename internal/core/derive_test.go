package core

import (
	"math/rand"
	"reflect"
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
	newbie := trace.EntityID(700)
	st2 := st.Derive()
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
