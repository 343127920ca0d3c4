package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// snapshotNames is the entity info callback the snapshot tests write with.
func snapshotNames(e trace.EntityID) (string, uint32) { return fmt.Sprintf("e%d", e), 1 }

// decodeSnapshot decodes an image from a stream.
func decodeSnapshot(r io.Reader, ix *spindex.Index) (*Snapshot, error) {
	sr, err := secfile.NewReader(r)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(sr, ix)
}

// readSnapshot decodes an image from a stream and replays it over src,
// trusting stored IDs.
func readSnapshot(r io.Reader, ix *spindex.Index, src SequenceSource) (*Tree, error) {
	snap, err := decodeSnapshot(r, ix)
	if err != nil {
		return nil, err
	}
	return snap.Tree(ix, src, nil)
}

// TestSnapshotRoundTrip: WriteSnapshot + DecodeSnapshot + Tree reproduces an
// identical index: same structure, same stats, same query answers, and
// still updatable.
func TestSnapshotRoundTrip(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 17, 60, 24)
	var buf bytes.Buffer
	n, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, nil, snapshotNames)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := readSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded tree invalid: %v", err)
	}
	if got, want := loaded.Stats(), tree.Stats(); got != want {
		t.Errorf("stats diverge: %+v vs %+v", got, want)
	}
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(0); e < 10; e++ {
		a, sa, err := tree.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := loaded.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || sa != sb {
			t.Fatalf("query %d diverges after reload: %v vs %v", e, a, b)
		}
	}
	// The loaded tree stays maintainable.
	if err := loaded.Remove(0); err != nil {
		t.Fatalf("Remove on loaded tree: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("Validate after Remove: %v", err)
	}
}

func TestSnapshotErrors(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 19, 10, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, nil, snapshotNames); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Bad magic.
	bad := append([]byte("NOTATREE\n"), good[len(secfile.Magic):]...)
	if _, err := readSnapshot(bytes.NewReader(bad), ix, st); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every prefix length must error, not panic.
	for _, cut := range []int{0, 5, 12, 40, len(good) - 3} {
		if _, err := readSnapshot(bytes.NewReader(good[:cut]), ix, st); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Wrong sp-index height.
	wrongIx, _, _ := fixture411(t) // height 2, snapshot has 3
	if _, err := readSnapshot(bytes.NewReader(good), wrongIx, st); err == nil {
		t.Error("mismatched sp-index accepted")
	}
	// TableHasher-based trees cannot persist.
	ixEx, th, stEx := fixture411(t)
	exTree, err := Build(ixEx, th, stEx, []trace.EntityID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exTree.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, nil, snapshotNames); err == nil {
		t.Error("TableHasher tree persisted")
	}
}

// TestApproxExactWhenEpsilonZero: ε = 0 with no budget reproduces TopK
// exactly (results and work done).
func TestApproxExactWhenEpsilonZero(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 23, 50, 16)
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(0); e < 8; e++ {
		q := st.Get(e)
		exact, es, err := tree.TopK(q, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		approx, as, err := tree.ApproxTopK(q, 5, m, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact, approx) {
			t.Fatalf("ε=0 diverged: %v vs %v", exact, approx)
		}
		if as.AchievedEpsilon != 0 {
			t.Errorf("ε=0 reported achieved epsilon %v", as.AchievedEpsilon)
		}
		if as.SearchStats != es {
			t.Errorf("ε=0 work differs: %+v vs %+v", as.SearchStats, es)
		}
	}
}

// TestApproxQualityGuarantee: for any ε, the returned k-th degree is at
// least (1−AchievedEpsilon) times the true k-th degree, and the achieved
// epsilon never exceeds the requested one when no budget fires.
func TestApproxQualityGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, st, tree := buildRandomWorld(t, 29, 80, 16)
	m := measuresFor(t, 3)[0]
	for trial := 0; trial < 20; trial++ {
		q := st.Get(trace.EntityID(rng.Intn(80)))
		eps := rng.Float64() * 0.6
		k := 1 + rng.Intn(10)
		approx, as, err := tree.ApproxTopK(q, k, m, ApproxOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		truth := BruteForceTopK(st, st.Entities(), q, k, m)
		if len(approx) != len(truth) {
			t.Fatalf("result size %d vs %d", len(approx), len(truth))
		}
		if as.BudgetExhausted {
			t.Fatal("budget fired without a budget")
		}
		if as.AchievedEpsilon > eps+1e-12 {
			t.Fatalf("achieved ε %v exceeds requested %v", as.AchievedEpsilon, eps)
		}
		kthApprox := approx[len(approx)-1].Degree
		kthTrue := truth[len(truth)-1].Degree
		if kthApprox < (1-as.AchievedEpsilon)*kthTrue-1e-9 {
			t.Fatalf("guarantee violated: approx k-th %v < (1-%v)·true k-th %v",
				kthApprox, as.AchievedEpsilon, kthTrue)
		}
	}
}

// TestApproxBudget: MaxChecked caps exact evaluations and reports the
// exhaustion plus the honest achieved epsilon.
func TestApproxBudget(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 31, 100, 4)
	m := measuresFor(t, 3)[0]
	q := st.Get(0)
	res, stats, err := tree.ApproxTopK(q, 5, m, ApproxOptions{MaxChecked: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The budget is a soft cap: a leaf in progress completes.
	maxLeaf := tree.Stats().MaxLeafSize
	if stats.Checked > 10+maxLeaf {
		t.Errorf("checked %d with budget 10 (max leaf %d)", stats.Checked, maxLeaf)
	}
	if !stats.BudgetExhausted && stats.Checked >= tree.Len()-1 {
		t.Log("population smaller than budget path; acceptable")
	}
	if len(res) == 0 {
		t.Fatal("no results under budget")
	}
	if _, _, err := tree.ApproxTopK(q, 0, m, ApproxOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := tree.ApproxTopK(q, 1, m, ApproxOptions{Epsilon: 1}); err == nil {
		t.Error("ε=1 accepted")
	}
}

// TestApproxSavesWork: on a clustered world a generous ε must neither reach
// nor check more entities than the exact search.
func TestApproxSavesWork(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 37, 150, 64)
	m := measuresFor(t, 3)[0]
	exactChecked, approxChecked := 0, 0
	exactReached, approxReached := 0, 0
	for e := trace.EntityID(0); e < 15; e++ {
		_, es, err := tree.TopK(st.Get(e), 3, m)
		if err != nil {
			t.Fatal(err)
		}
		_, as, err := tree.ApproxTopK(st.Get(e), 3, m, ApproxOptions{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		exactChecked += es.Checked
		approxChecked += as.Checked
		exactReached += es.Reached()
		approxReached += as.Reached()
	}
	if approxChecked > exactChecked {
		t.Errorf("ε=0.5 checked %d > exact %d", approxChecked, exactChecked)
	}
	if approxReached > exactReached {
		t.Errorf("ε=0.5 reached %d > exact %d", approxReached, exactReached)
	}
}

// TestKNNJoinMatchesPerQuery: the join returns exactly the per-query TopK
// answers, for 1 and many workers.
func TestKNNJoinMatchesPerQuery(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 41, 60, 16)
	m := measuresFor(t, 3)[0]
	queries := st.Entities()[:20]
	for _, workers := range []int{1, 4} {
		joined, js, err := tree.KNNJoin(queries, 4, m, workers)
		if err != nil {
			t.Fatalf("KNNJoin(workers=%d): %v", workers, err)
		}
		if js.Queries != 20 || len(joined) != 20 {
			t.Fatalf("join answered %d queries, want 20", js.Queries)
		}
		for _, jr := range joined {
			want, _, err := tree.TopK(st.Get(jr.Query), 4, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(jr.Matches, want) {
				t.Fatalf("join result for %d diverges: %v vs %v", jr.Query, jr.Matches, want)
			}
		}
		if js.AvgPE < 0 || js.AvgPE > 1 {
			t.Errorf("AvgPE = %v", js.AvgPE)
		}
		if js.TotalChecked < 20 {
			t.Errorf("TotalChecked = %d", js.TotalChecked)
		}
	}
	if _, _, err := tree.KNNJoin(nil, 3, m, 1); err == nil {
		t.Error("empty join accepted")
	}
	if _, _, err := tree.KNNJoin([]trace.EntityID{9999}, 3, m, 1); err == nil {
		t.Error("unknown query entity accepted")
	}
}

// TestLeafOrderedEntities: the leaf order covers every entity exactly once
// and groups leaf members contiguously.
func TestLeafOrderedEntities(t *testing.T) {
	_, _, tree := buildRandomWorld(t, 43, 40, 8)
	order := tree.LeafOrderedEntities()
	if len(order) != 40 {
		t.Fatalf("order has %d entities, want 40", len(order))
	}
	seen := map[trace.EntityID]bool{}
	for _, e := range order {
		if seen[e] {
			t.Fatalf("entity %d repeated in leaf order", e)
		}
		seen[e] = true
	}
	pos := tree.leafOrder()
	for i := 1; i < len(order); i++ {
		if pos[order[i]] < pos[order[i-1]] {
			t.Fatal("leaf order not monotone in leaf position")
		}
	}
}
