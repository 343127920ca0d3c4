package digitaltraces

// Per-query structured tracing (internal/obs threaded through the DB query
// paths). Tracing is off by default: a DB without WithTracing carries a nil
// tracer, every record call no-ops on the nil receiver, and the hot path
// pays one pointer comparison — no allocation, no locking.

import (
	"time"

	"digitaltraces/internal/obs"
)

// LatencySummary is a per-query-kind latency read-out: sample count,
// log-bucketed p50/p90/p99 upper bounds, and the exact observed max. It is
// an alias of the internal histogram's summary type, so tracer read-outs
// flow into IndexStats without conversion.
type LatencySummary = obs.LatencySummary

// WithTracing equips the DB with a query-trace ring of the given capacity.
// Every TopK / TopKByExample / TopKBatch item records a structured
// obs.QueryTrace (entity, k, pinned generation, cache outcome, work counts,
// latency) into the ring, overwriting the oldest once full, and feeds
// per-kind latency histograms surfaced by IndexStats.Latencies. Size ≤ 0
// leaves tracing disabled (the default).
func WithTracing(size int) Option {
	return func(db *DB) error {
		db.tracer = obs.New(size)
		return nil
	}
}

// Tracer exposes the DB's query tracer — nil when tracing is disabled. The
// server layer reads it to serve GET /traces; obs.Tracer methods are all
// nil-receiver safe, so callers may use the result unconditionally.
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// record writes one query's trace: s is the snapshot that answered (nil if
// the query failed before pinning one), so the trace names the answering
// generation. No-op when tracing is disabled.
func (db *DB) record(kind obs.Kind, entity string, k int, s *snapshot, out []Match, qs QueryStats, err error, start time.Time) {
	if db.tracer == nil {
		return
	}
	qt := obs.QueryTrace{
		Kind:         kind,
		Entity:       entity,
		K:            k,
		CacheHit:     qs.CacheHit,
		Checked:      qs.Checked,
		ZeroSkipped:  qs.ZeroSkipped,
		BoundSkipped: qs.BoundSkipped,
		Start:        start,
		Total:        time.Since(start),
	}
	if s != nil {
		qt.Generation = s.generation
	}
	if len(out) == k && k > 0 {
		qt.KthDegree = out[k-1].Degree
	}
	if err != nil {
		qt.Err = err.Error()
	}
	db.tracer.Record(qt)
}
