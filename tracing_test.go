package digitaltraces_test

import (
	"testing"

	"digitaltraces"
)

func tracedDB(t *testing.T, opts ...digitaltraces.Option) *digitaltraces.DB {
	t.Helper()
	db, err := digitaltraces.NewGridDB(4, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 12; e++ {
		name := entityName(e)
		for h := 0; h <= e%4; h++ {
			if err := db.AddVisit(name, digitaltraces.VenueName(h), digitaltraces.TimeAt(h), digitaltraces.TimeAt(h+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return db
}

func entityName(e int) string {
	return string(rune('a'+e%26)) + "-entity"
}

// TestTracingDisabledByDefault: no WithTracing means a nil tracer, empty
// latency summaries, and queries that work exactly as before.
func TestTracingDisabledByDefault(t *testing.T) {
	db := tracedDB(t)
	if db.Tracer() != nil {
		t.Fatal("tracer non-nil without WithTracing")
	}
	if _, _, err := db.TopK(entityName(0), 3); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.Latencies != nil {
		t.Fatalf("Latencies without tracing: %v", st.Latencies)
	}
	if db.Tracer().Snapshot() != nil {
		t.Fatal("nil tracer produced a snapshot")
	}
}

// TestTopKTraced checks the single-DB TopK/TopKByExample paths record
// complete traces: kind, entity, k, pinned generation, cache outcome, work
// counts, and a kth degree consistent with the answer.
func TestTopKTraced(t *testing.T) {
	db := tracedDB(t, digitaltraces.WithTracing(16), digitaltraces.WithQueryCache(8))
	tr := db.Tracer()
	if tr == nil {
		t.Fatal("WithTracing left tracer nil")
	}

	out, qs, err := db.TopK(entityName(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first query hit the cache")
	}
	if _, qs2, err := db.TopK(entityName(0), 3); err != nil || !qs2.CacheHit {
		t.Fatalf("second query: err=%v cacheHit=%v, want hit", err, qs2.CacheHit)
	}
	visits, err := db.VisitsOf(entityName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopKByExample(visits, 2); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(snap))
	}
	// Newest first: example, cached topk, uncached topk.
	ex, hit, miss := snap[0], snap[1], snap[2]
	if ex.Kind != "example" || ex.Entity != "" || ex.K != 2 {
		t.Fatalf("example trace = %+v", ex)
	}
	if hit.Kind != "topk" || !hit.CacheHit || hit.Checked != 0 {
		t.Fatalf("cache-hit trace = %+v", hit)
	}
	if miss.Kind != "topk" || miss.CacheHit || miss.Entity != entityName(0) || miss.K != 3 {
		t.Fatalf("cache-miss trace = %+v", miss)
	}
	if miss.Checked != qs.Checked || miss.ZeroSkipped != qs.ZeroSkipped || miss.BoundSkipped != qs.BoundSkipped {
		t.Fatalf("trace checked/zero-skipped/bound-skipped %d/%d/%d != QueryStats' %d/%d/%d",
			miss.Checked, miss.ZeroSkipped, miss.BoundSkipped, qs.Checked, qs.ZeroSkipped, qs.BoundSkipped)
	}
	gen, ok := db.SnapshotGeneration()
	if !ok || miss.Generation != gen {
		t.Fatalf("trace generation %d, serving generation %d (ok=%v)", miss.Generation, gen, ok)
	}
	if len(out) == 3 && miss.KthDegree != out[2].Degree {
		t.Fatalf("trace kth %v != answer kth %v", miss.KthDegree, out[2].Degree)
	}
	if miss.Total <= 0 || miss.Start.IsZero() {
		t.Fatalf("trace timing missing: %+v", miss)
	}

	lat := db.IndexStats().Latencies
	if lat["topk"].Count != 2 || lat["example"].Count != 1 {
		t.Fatalf("latency summaries = %v", lat)
	}
}

// TestTopKTracedError: failed queries are traced with their error.
func TestTopKTracedError(t *testing.T) {
	db := tracedDB(t, digitaltraces.WithTracing(4))
	if _, _, err := db.TopK("nobody", 3); err == nil {
		t.Fatal("unknown entity succeeded")
	}
	snap := db.Tracer().Snapshot()
	if len(snap) != 1 || snap[0].Err == "" || snap[0].Entity != "nobody" {
		t.Fatalf("error trace = %+v", snap)
	}
}

// TestBatchTraceLinkage: every TopKBatch item gets its own trace, all
// linked by one shared nonzero batch ID, and the whole batch lands in the
// "batch" histogram.
func TestBatchTraceLinkage(t *testing.T) {
	db := tracedDB(t, digitaltraces.WithTracing(32))
	names := []string{entityName(0), entityName(1), entityName(2)}
	out, _, err := db.TopKBatch(names, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("batch answered %d entities", len(out))
	}
	snap := db.Tracer().Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d traces, want 3 batch items", len(snap))
	}
	batchID := snap[0].BatchID
	if batchID == 0 {
		t.Fatal("batch item has zero batch ID")
	}
	seen := map[string]bool{}
	for _, qt := range snap {
		if qt.BatchID != batchID {
			t.Fatalf("batch IDs differ: %d vs %d", qt.BatchID, batchID)
		}
		if qt.Kind != "topk" || qt.K != 2 {
			t.Fatalf("batch item trace = %+v", qt)
		}
		if qt.Checked <= 0 {
			t.Fatalf("batch item missing per-item stats: %+v", qt)
		}
		seen[qt.Entity] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("no trace for batch entity %q (got %v)", n, seen)
		}
	}
	// A second batch gets a fresh ID.
	if _, _, err := db.TopKBatch(names[:2], 2, 1); err != nil {
		t.Fatal(err)
	}
	if id2 := db.Tracer().Snapshot()[0].BatchID; id2 == batchID {
		t.Fatal("second batch reused the batch ID")
	}
	lat := db.IndexStats().Latencies
	if lat["batch"].Count != 2 {
		t.Fatalf("batch histogram count = %d, want 2", lat["batch"].Count)
	}
}
