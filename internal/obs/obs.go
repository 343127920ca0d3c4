// Package obs is the per-query observability layer: structured query traces
// recorded into a fixed-size ring buffer, plus log-bucketed latency
// histograms summarized as p50/p90/p99/max. It exists because aggregate
// statistics (QueryStats, /stats) collapse a query to a handful of scalars —
// they can say that queries are slow, never *why one query* was slow. A
// QueryTrace keeps the full shape of one query: which shards it touched, how
// many candidates each shard surrendered before the threshold cut, where the
// time went between the per-shard pulls and the coordinator merge, and which
// snapshot generations it answered over.
//
// # Cost model
//
// Tracing is designed to be safe to leave on in production and free when off:
//
//   - Disabled is a nil *Tracer. Every method is nil-receiver safe and
//     returns immediately, so instrumented hot paths pay one pointer
//     comparison and allocate nothing.
//   - Enabled, a Record is one atomic counter increment to claim a slot plus
//     one uncontended per-slot mutex around a struct copy into preallocated
//     storage. The ring never grows: memory is bounded by the configured
//     size for the life of the process, and old traces are overwritten in
//     arrival order.
//   - Histograms are arrays of atomic counters (no locks, no allocation per
//     observation); quantiles are computed only when read.
//
// Readers (the /traces endpoint, tracetool) take a point-in-time Snapshot:
// per-slot locking guarantees no torn traces even while writers lap the
// ring, and the copy is ordered newest-first by trace ID.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names the query path a trace or latency observation came from. The
// set is closed: histograms are preallocated per kind.
type Kind string

const (
	// KindTopK is a single top-k query (TopK, or one TopKBatch item).
	KindTopK Kind = "topk"
	// KindExample is a query-by-example (TopKByExample).
	KindExample Kind = "example"
	// KindBatch is a whole TopKBatch call (its items are traced as KindTopK
	// linked by a shared BatchID; the batch itself is histogram-only).
	KindBatch Kind = "batch"
	// KindMerge is the coordinator's merge of the shards' replies —
	// histogram-only, so per-shard call cost and merge cost are separable in
	// /stats without fetching traces.
	KindMerge Kind = "merge"
)

// kinds is the closed histogram registry, index-aligned with Tracer.hists.
var kinds = [...]Kind{KindTopK, KindExample, KindBatch, KindMerge}

func kindIndex(k Kind) int {
	for i, known := range kinds {
		if known == k {
			return i
		}
	}
	return -1
}

// ShardTrace is one shard's share of a scatter-gather query.
type ShardTrace struct {
	// Shard is the shard ordinal (the same ordinal ShardStats reports).
	Shard int
	// Generation is the shard snapshot generation the per-shard search
	// pinned — one coordinate of the query's generation vector.
	Generation uint64
	// Pulled counts the matches this shard returned to the coordinator.
	// Summed over shards it equals the trace's Pulled and QueryStats.Pulled.
	Pulled int
	// Checked counts the exact degree computations the shard's search
	// performed — the work early termination exists to bound.
	Checked int
	// Cut reports the shard's search was stopped while it may still have had
	// candidates: by the k+1 per-shard cap or by its floor; a row not cut ran
	// dry.
	Cut bool
	// Bound is the shard's admissible bound on what it did not return —
	// compare with the trace's KthDegree to see the margin the cut fired at.
	Bound float64
	// Addr names the shard's server address when the shard is remote
	// (shard/remote); empty for in-process shards. Lets a trace reader tell
	// which host answered slowly without an ordinal→address lookup.
	Addr string `json:",omitempty"`
	// Latency is the wall-clock this shard's call cost (the calls of one
	// wave run in parallel across shards, so these overlap).
	Latency time.Duration
}

// QueryTrace is the full structured record of one query. All fields are
// written before Record and never mutated after, so snapshot readers may
// hold them without copying.
type QueryTrace struct {
	// ID is assigned by Record: process-unique, monotonically increasing.
	ID uint64
	// BatchID links the per-item traces of one TopKBatch call (0 outside a
	// batch). Items of the same batch share it; tracetool groups by it.
	BatchID uint64
	// Kind is the query path (KindTopK or KindExample in the ring).
	Kind Kind
	// Entity is the query entity name ("" for query-by-example).
	Entity string
	// K is the requested result size.
	K int
	// Generation is the index snapshot generation a single-DB query pinned.
	Generation uint64
	// Generations is the per-shard generation vector a cluster query
	// answered over (index-aligned with shard ordinals; 0 = empty shard).
	Generations []uint64
	// CacheHit reports the answer came from the generation-keyed query
	// cache — Checked, Pulled and Shards are then zero by construction.
	CacheHit bool
	// Checked counts exact degree computations across all shards (the
	// QueryStats.Checked of this query).
	Checked int
	// ZeroSkipped and BoundSkipped are QueryStats' fields of the same names:
	// entities the posting-driven search settled without a degree computation
	// (zero on a cluster, whose shards report Checked only).
	ZeroSkipped  int
	BoundSkipped int
	// Pulled counts the matches the shards returned; equals the sum of
	// per-shard Pulled. Zero on a single DB (no fan-out).
	Pulled int
	// KthDegree is the merged k-th degree at termination (0 when fewer than
	// k results exist) — the threshold the per-shard Bounds were cut
	// against.
	KthDegree float64
	// Shards is the per-shard breakdown, present only for cluster queries.
	Shards []ShardTrace
	// Merge is the coordinator's merge time — the
	// scatter-gather cost that is not attributable to any shard.
	Merge time.Duration
	// Start is when the query began; Total is its end-to-end latency
	// (including snapshot pinning and cache lookups, not just the search).
	Start time.Time
	Total time.Duration
	// Err is the query's error, if any (failed queries are traced too —
	// an unknown entity or a failed lazy build is exactly the kind of
	// outlier tracing exists to surface).
	Err string
}

// Query is the trace of one finished query with the fields every engine
// fills alike: its kind, batch, entity and k, whether the cache answered,
// its exact degree computations, kth (the answer's k-th degree, 0 when it
// holds fewer than k matches), its error and the latency since start. The
// engine adds what only it knows (a DB's pinned generation and skip counts,
// a cluster's generation vector and shard rows) before Record.
func Query(kind Kind, batchID uint64, entity string, k int, start time.Time, cacheHit bool, checked int, kth float64, err error) QueryTrace {
	qt := QueryTrace{
		Kind:      kind,
		BatchID:   batchID,
		Entity:    entity,
		K:         k,
		CacheHit:  cacheHit,
		Checked:   checked,
		KthDegree: kth,
		Start:     start,
		Total:     time.Since(start),
	}
	if err != nil {
		qt.Err = err.Error()
	}
	return qt
}

// slot is one preallocated ring position. The per-slot mutex makes a
// Record/Snapshot collision safe (no torn traces) while keeping writers on
// different slots fully independent.
type slot struct {
	mu sync.Mutex
	t  QueryTrace
	ok bool
}

// Tracer is a fixed-size query-trace ring plus per-kind latency histograms.
// A nil *Tracer is the disabled state: every method no-ops, so call sites
// need no conditionals. Create one with New.
type Tracer struct {
	slots   []slot
	cursor  atomic.Uint64 // next slot to claim (monotonic; slot = cursor % len)
	ids     atomic.Uint64 // last assigned trace ID
	batches atomic.Uint64 // last assigned batch ID
	hists   [len(kinds)]Histogram
}

// New creates a tracer with a ring of size slots. Size ≤ 0 returns nil —
// the disabled tracer — so callers can pass a configuration value straight
// through.
func New(size int) *Tracer {
	if size <= 0 {
		return nil
	}
	return &Tracer{slots: make([]slot, size)}
}

// Enabled reports whether tracing is on (the tracer is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Cap returns the ring capacity (0 when disabled).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// NextBatchID returns a fresh nonzero batch ID linking the item traces of
// one batch call (0 when disabled — items then record no traces either, so
// the sentinel never leaks into the ring).
func (t *Tracer) NextBatchID() uint64 {
	if t == nil {
		return 0
	}
	return t.batches.Add(1)
}

// Record assigns the trace a fresh ID, stores it in the ring (overwriting
// the oldest entry once full) and feeds its Total into the kind's latency
// histogram. Returns the assigned ID; 0 when disabled.
func (t *Tracer) Record(qt QueryTrace) uint64 {
	if t == nil {
		return 0
	}
	qt.ID = t.ids.Add(1)
	i := t.cursor.Add(1) - 1
	s := &t.slots[i%uint64(len(t.slots))]
	s.mu.Lock()
	s.t = qt
	s.ok = true
	s.mu.Unlock()
	t.Observe(qt.Kind, qt.Total)
	return qt.ID
}

// Observe feeds one latency sample into the kind's histogram without
// recording a trace — the whole-batch and merge-time observations.
func (t *Tracer) Observe(k Kind, d time.Duration) {
	if t == nil {
		return
	}
	if i := kindIndex(k); i >= 0 {
		t.hists[i].Observe(d)
	}
}

// Snapshot returns a point-in-time copy of every live trace, newest first
// (descending ID). Per-slot locking guarantees no torn traces even while
// writers lap the ring; the result is bounded by the ring capacity.
func (t *Tracer) Snapshot() []QueryTrace {
	if t == nil {
		return nil
	}
	out := make([]QueryTrace, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.ok {
			out = append(out, s.t)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Summaries returns the per-kind latency summaries for every kind that has
// observed at least one sample, keyed by the kind's string name.
func (t *Tracer) Summaries() map[string]LatencySummary {
	if t == nil {
		return nil
	}
	out := make(map[string]LatencySummary, len(kinds))
	for i, k := range kinds {
		if s := t.hists[i].Summary(); s.Count > 0 {
			out[string(k)] = s
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
