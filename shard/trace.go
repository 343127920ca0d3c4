package shard

// Cluster-level query tracing: the coordinator records one obs.QueryTrace
// per TopK/TopKByExample/TopKBatch-item with the per-shard scatter-gather
// breakdown the single-DB tracer cannot see — which shards were asked, what
// each returned, and how the wall-clock split between per-shard calls and the
// coordinator merge. Config.TraceSize
// ≤ 0 (the default) leaves the tracer nil and every record call a no-op.

import (
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
)

// Tracer exposes the cluster's coordinator-level query tracer — nil when
// Config.TraceSize was ≤ 0. Per-shard DB tracers stay empty under cluster
// queries (a shard answers through DB.Rank, not its TopK), so this is the
// one place cluster queries are recorded.
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// record writes one cluster query's trace and feeds the latency histograms.
// rows are the query's per-shard rows (nil for a cache hit or a failed
// query), and its generation vector is read off them; a cache hit passes
// the vector its version decoded instead. No-op when tracing is disabled.
func (c *Cluster) record(kind obs.Kind, entity string, k int, batchID uint64, out []digitaltraces.Match, qs digitaltraces.QueryStats, rows []obs.ShardTrace, gens []uint64, err error, start time.Time) {
	if c.tracer == nil {
		return
	}
	var kth float64
	if len(out) == k && k > 0 {
		kth = out[k-1].Degree
	}
	qt := obs.Query(kind, batchID, entity, k, start, qs.CacheHit, qs.Checked, kth, err)
	if rows != nil {
		gens = make([]uint64, len(c.shards)) // 0 for shards that were empty
		for _, r := range rows {
			gens[r.Shard] = r.Generation
		}
	}
	qt.Generations, qt.Shards, qt.Pulled, qt.Merge = gens, rows, qs.Pulled, qs.Merge
	c.tracer.Record(qt)
	if qs.Merge > 0 {
		c.tracer.Observe(obs.KindMerge, qs.Merge)
	}
}
