package shard

// Cluster-level query tracing: the coordinator records one obs.QueryTrace
// per TopK/TopKByExample/TopKBatch-item with the per-shard scatter-gather
// breakdown the single-DB tracer cannot see — which shards were touched,
// what each surrendered before the threshold cut, and how the wall-clock
// split between per-shard pulls and the coordinator merge. Config.TraceSize
// ≤ 0 (the default) leaves the tracer nil and every record call a no-op.

import (
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
)

// gatherDetail is the trace-grade breakdown of one cluster query, threaded
// from the gather up to the trace recorder. It is collected unconditionally
// — QueryStats.Shards/Pulled/Merge report from it even with tracing off —
// and costs one small slice per query.
type gatherDetail struct {
	shards      []obs.ShardTrace
	generations []uint64 // per-shard generation vector, aligned with c.shards
	merge       time.Duration
	kth         float64
	pulled      int // candidates drawn across shards (sum of shards[i].Pulled)
}

// Tracer exposes the cluster's coordinator-level query tracer — nil when
// Config.TraceSize was ≤ 0. Per-shard DB tracers stay empty under cluster
// queries (the fan-out streams through the incremental search path, not the
// shard's TopK), so this is the one place cluster queries are recorded.
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// record writes one cluster query's trace and feeds the latency histograms.
// No-op when tracing is disabled.
func (c *Cluster) record(kind obs.Kind, entity string, k int, batchID uint64, out []digitaltraces.Match, qs digitaltraces.QueryStats, d gatherDetail, err error, start time.Time) {
	if c.tracer == nil {
		return
	}
	qt := obs.QueryTrace{
		Kind:        kind,
		BatchID:     batchID,
		Entity:      entity,
		K:           k,
		Generations: d.generations,
		CacheHit:    qs.CacheHit,
		Checked:     qs.Checked,
		Pulled:      d.pulled,
		KthDegree:   d.kth,
		Shards:      d.shards,
		Merge:       d.merge,
		Start:       start,
		Total:       time.Since(start),
	}
	if qt.KthDegree == 0 && len(out) == k && k > 0 {
		qt.KthDegree = out[k-1].Degree // cache hits skip the gather; read it off the answer
	}
	if err != nil {
		qt.Err = err.Error()
	}
	c.tracer.Record(qt)
	if d.merge > 0 {
		c.tracer.Observe(obs.KindMerge, d.merge)
	}
}

// detailFromReport maps a gatherReport (stream-indexed) back to shard
// ordinals and fills in what only the coordinator knows: each stream's
// shard, pinned generation and raw checked count.
func detailFromReport(rep gatherReport, ords []int, streams []opened) gatherDetail {
	d := gatherDetail{merge: rep.merge, kth: rep.kth, shards: make([]obs.ShardTrace, len(rep.streams))}
	for i, sr := range rep.streams {
		d.pulled += sr.pulled
		d.shards[i] = obs.ShardTrace{
			Shard:      ords[i],
			Generation: streams[i].st.Generation(),
			Pulled:     sr.pulled,
			Rounds:     sr.rounds,
			Checked:    streams[i].st.Checked(),
			Cut:        sr.cut,
			Exhausted:  sr.exhausted,
			Bound:      sr.bound,
			Latency:    sr.latency,
		}
		if a, ok := streams[i].st.(interface{ Addr() string }); ok {
			d.shards[i].Addr = a.Addr() // remote streams name their shard server
		}
	}
	return d
}
