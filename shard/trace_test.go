package shard

// Coordinator-level tracing tests: every cluster query must record a trace
// whose per-shard breakdown is internally consistent (pulled counts sum,
// generation vector matches the shards) and
// whose fan-out shape matches the QueryStats the same call returned.

import (
	"testing"

	"digitaltraces"
)

// tracedCluster partitions the synthetic city into n shards with tracing
// (and optionally a cluster cache) on.
func tracedCluster(t *testing.T, n, traceSize, cacheSize int) *Cluster {
	t.Helper()
	src := testCity(t)
	c, err := Partition(src, Config{
		Shards:    n,
		TraceSize: traceSize,
		CacheSize: cacheSize,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(citySide, cityLevels)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterTraceConsistency: a pruned scatter-gather trace's per-shard
// pulled counts sum to the trace's (and the QueryStats') Pulled, and the
// generation vector matches what the shards serve.
func TestClusterTraceConsistency(t *testing.T) {
	const shards = 4
	c := tracedCluster(t, shards, 16, 0)
	defer c.Close()

	entity := c.shards[0].(local).Entities()[0]
	out, qs, err := c.TopK(entity, 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Shards == 0 || qs.Pulled == 0 {
		t.Fatalf("QueryStats missing fan-out shape: %+v", qs)
	}

	snap := c.Tracer().Snapshot()
	if len(snap) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(snap))
	}
	qt := snap[0]
	if qt.Kind != "topk" || qt.Entity != entity || qt.K != 5 || qt.CacheHit {
		t.Fatalf("trace = %+v", qt)
	}
	if len(qt.Shards) != qs.Shards {
		t.Fatalf("trace touches %d shards, QueryStats says %d", len(qt.Shards), qs.Shards)
	}
	sumPulled, sumChecked := 0, 0
	seenShard := map[int]bool{}
	for _, st := range qt.Shards {
		sumPulled += st.Pulled
		sumChecked += st.Checked
		if st.Shard < 0 || st.Shard >= shards || seenShard[st.Shard] {
			t.Fatalf("bad or duplicate shard ordinal %d", st.Shard)
		}
		seenShard[st.Shard] = true
		if wantGen, _ := c.shards[st.Shard].SnapshotGeneration(); st.Generation != wantGen {
			t.Fatalf("shard %d trace generation %d, serving %d", st.Shard, st.Generation, wantGen)
		}
	}
	if qt.Pulled != sumPulled || qs.Pulled != sumPulled {
		t.Fatalf("pulled: trace %d, per-shard sum %d, stats %d — must agree", qt.Pulled, sumPulled, qs.Pulled)
	}
	// The gather's raw per-shard checked counts include the excluded self;
	// QueryStats subtracts it, so the sum dominates.
	if qt.Checked != qs.Checked || sumChecked < qs.Checked {
		t.Fatalf("checked: trace %d, stats %d, per-shard sum %d", qt.Checked, qs.Checked, sumChecked)
	}
	if len(qt.Generations) != shards {
		t.Fatalf("generation vector has %d coordinates, want %d", len(qt.Generations), shards)
	}
	if len(out) == 5 && qt.KthDegree != out[4].Degree {
		t.Fatalf("trace kth %v != answer kth %v", qt.KthDegree, out[4].Degree)
	}
	if qs.Merge <= 0 || qt.Merge != qs.Merge {
		t.Fatalf("merge time: trace %v, stats %v — must be recorded and agree", qt.Merge, qs.Merge)
	}
	if lat := c.IndexStats().Latencies; lat["topk"].Count != 1 || lat["merge"].Count != 1 {
		t.Fatalf("latency summaries = %v", lat)
	}
}

// TestClusterCacheHitTrace: a cache-hit trace carries the decoded
// generation vector and no per-shard breakdown.
func TestClusterCacheHitTrace(t *testing.T) {
	c := tracedCluster(t, 4, 16, 32)
	defer c.Close()

	entity := c.shards[0].(local).Entities()[0]
	if _, _, err := c.TopK(entity, 5); err != nil {
		t.Fatal(err)
	}
	if _, qs, err := c.TopK(entity, 5); err != nil || !qs.CacheHit {
		t.Fatalf("second query: err=%v cacheHit=%v", err, qs.CacheHit)
	}
	snap := c.Tracer().Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(snap))
	}
	hit, miss := snap[0], snap[1]
	if !hit.CacheHit || hit.Checked != 0 || len(hit.Shards) != 0 {
		t.Fatalf("cache-hit trace = %+v", hit)
	}
	if len(hit.Generations) != len(miss.Generations) {
		t.Fatalf("hit generations %v, miss generations %v", hit.Generations, miss.Generations)
	}
	for i := range hit.Generations {
		if hit.Generations[i] != miss.Generations[i] {
			t.Fatalf("generation vectors differ at %d: %v vs %v", i, hit.Generations, miss.Generations)
		}
	}
}

// TestClusterBatchTraceLinkage: cluster batch items share one batch ID.
func TestClusterBatchTraceLinkage(t *testing.T) {
	c := tracedCluster(t, 2, 32, 0)
	defer c.Close()

	names := append(append([]string{}, c.shards[0].(local).Entities()[:2]...), c.shards[1].(local).Entities()[0])
	if _, _, err := c.TopKBatch(names, 3, 2); err != nil {
		t.Fatal(err)
	}
	snap := c.Tracer().Snapshot()
	if len(snap) != len(names) {
		t.Fatalf("ring holds %d traces, want %d batch items", len(snap), len(names))
	}
	id := snap[0].BatchID
	if id == 0 {
		t.Fatal("batch item has zero batch ID")
	}
	for _, qt := range snap {
		if qt.BatchID != id {
			t.Fatalf("batch IDs differ: %+v", snap)
		}
	}
	if lat := c.IndexStats().Latencies; lat["batch"].Count != 1 {
		t.Fatalf("batch histogram = %v", lat)
	}
}

// TestClusterTracingDisabled: TraceSize 0 keeps everything off while the
// QueryStats fan-out shape still reports.
func TestClusterTracingDisabled(t *testing.T) {
	c := tracedCluster(t, 2, 0, 0)
	defer c.Close()

	if c.Tracer() != nil {
		t.Fatal("tracer non-nil with TraceSize 0")
	}
	entity := c.shards[0].(local).Entities()[0]
	_, qs, err := c.TopK(entity, 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Shards == 0 || qs.Pulled == 0 {
		t.Fatalf("fan-out shape must report even without tracing: %+v", qs)
	}
	if st := c.IndexStats(); st.Latencies != nil {
		t.Fatalf("Latencies without tracing: %v", st.Latencies)
	}
}
