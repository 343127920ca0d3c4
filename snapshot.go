package digitaltraces

// Build-aside snapshot machinery — the non-blocking index maintenance core.
//
// A DB serves queries from an immutable *snapshot published through an
// atomic.Pointer. Builders (BuildIndex, Refresh, and the query path's lazy
// fold) construct the next snapshot entirely off to the side — folding the
// pending visits captured under the ingest lock into the previous snapshot's
// sequences — and then swap the pointer, dropping what they folded, so
// a multi-second rebuild never blocks a read the previous snapshot can
// serve: queries arriving while a build is in flight keep answering from it
// unless it misses a write acknowledged before they began. See DESIGN.md
// "Concurrency model" for the full contract.

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// snapshot is one frozen, fully consistent index state: the sequence store,
// the postings over it, the degree measure and the name table of every
// entity that existed at capture. A snapshot is immutable after publication —
// the postings are only ever read (core.Postings searches are read-only), the
// store is never Put into again, and byID is a length-capped prefix whose
// elements never change — so any number of queries search it lock-free while
// maintenance builds the next snapshot aside instead of mutating this one.
type snapshot struct {
	store   *trace.Store
	post    *core.Postings
	measure adm.Measure
	byID    []string // entity name by EntityID, frozen at capture

	// pool is the storage buffer pool behind a mapped (or disk-backed)
	// store — nil for heap-served snapshots. The store reads through it;
	// it is threaded here so IndexStats can report hit rates, and so
	// refreshes can carry it forward through derived snapshots.
	pool *storage.Store

	generation  uint64        // 1 for the first build, +1 per swap
	seq         uint64        // write sequence the build's view captured (0 for a load)
	buildTime   time.Duration // duration of the lineage's last full BuildIndex
	refreshTime time.Duration // duration of the last incremental Refresh (0 if this lineage ends in a full build)
	swappedAt   time.Time     // when this snapshot was published
}

// topK runs the exact search against this frozen snapshot. No locks: the
// postings, store, measure and name table are immutable after publication.
func (s *snapshot) topK(q *trace.Sequences, k int) ([]Match, QueryStats, error) {
	startT := time.Now()
	res, stats, err := s.post.TopK(q, k, s.measure)
	if err != nil {
		return nil, QueryStats{}, err
	}
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{Entity: s.byID[r.Entity], Degree: r.Degree}
	}
	return out, QueryStats{
		Checked:      stats.Checked,
		ZeroSkipped:  stats.ZeroSkipped,
		BoundSkipped: stats.BoundSkipped,
		PE:           stats.PE,
		Pruned:       stats.Pruned,
		Elapsed:      time.Since(startT),
	}, nil
}

// view is the ingest side a builder captured under the ingest lock: the
// pending entities, ascending, with their pending records as frozen slice
// headers (appends only ever write past these lengths or reallocate, so the
// captured prefixes are stable), the name-table prefix, and the write
// sequence at capture — the new snapshot covers every visit counted up to it.
// publish drops exactly the captured prefixes.
type view struct {
	byID []string
	ids  []trace.EntityID
	recs [][]trace.Record // recs[i]: ids[i]'s pending records at capture
	seq  uint64
}

// captureView snapshots the ingest side's pending visits.
func (db *DB) captureView() view {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := view{byID: db.byID[:len(db.byID):len(db.byID)], seq: db.writeSeq}
	v.ids = slices.Sorted(maps.Keys(db.pending))
	v.recs = make([][]trace.Record, len(v.ids))
	for i, e := range v.ids {
		recs := db.pending[e]
		v.recs[i] = recs[:len(recs):len(recs)]
	}
	return v
}

// stage folds each entity's records into the sequence prev serves for it —
// nothing when prev is nil — the one staging step every build runs. Cell
// sets union idempotently, so the result is exact whatever prev already
// covers. Sequence building (cell expansion plus per-level sort-dedup) is a
// fold's largest cost and per-entity independent, so it fans out across a
// bounded worker pool; each worker touches only its own output slot.
func (db *DB) stage(prev *snapshot, ids []trace.EntityID, recs [][]trace.Record) []*trace.Sequences {
	out := make([]*trace.Sequences, len(ids))
	parallel.For(len(ids), func(i int) {
		var folded *trace.Sequences
		if prev != nil {
			folded = prev.store.Get(ids[i])
		}
		out[i] = trace.NewSequencesMerged(db.ix, ids[i], recs[i], folded)
	})
	return out
}

// fold stages v over prev into the next store: a copy-on-write child of
// prev's (trace.Store.Derive) sharing every other entity's sequences, or a
// fresh store for the first build.
func (db *DB) fold(prev *snapshot, v view) *trace.Store {
	store := trace.NewStore(db.ix)
	if prev != nil {
		store = prev.store.Derive()
	}
	for _, s := range db.stage(prev, v.ids, v.recs) {
		store.Put(s)
	}
	return store
}

// buildSnapshot folds the pending visits and re-seals the postings over the
// whole store, then publishes. Callers must hold buildMu. Cost is the fold
// plus sealing, O(total cells) — all of it outside every lock queries touch.
func (db *DB) buildSnapshot() (*snapshot, error) {
	start := time.Now()
	prev := db.snap.Load()
	v := db.captureView()
	if prev == nil && len(v.ids) == 0 {
		return nil, fmt.Errorf("digitaltraces: no visits to index")
	}
	store := db.fold(prev, v)
	post, err := core.BuildPostings(db.ix, store, store.Entities())
	if err != nil {
		return nil, err
	}
	measure, err := db.newMeasure()
	if err != nil {
		return nil, err
	}
	ns := &snapshot{
		store:     store,
		post:      post,
		measure:   measure,
		byID:      v.byID,
		buildTime: time.Since(start),
	}
	if prev != nil {
		ns.pool = prev.pool
	}
	return db.publish(ns, v), nil
}

// refreshSnapshot folds the pending visits into the next snapshot aside
// (Section 4.2.3 incremental maintenance) and publishes it. prev is never
// mutated, so queries pinned to it keep searching it bit-identically.
//
// The refresh is copy-on-write: the store derives a child sharing every
// clean entity's sequences (trace.Store.Derive) and the postings add only the
// dirty entities' pairs (core.Postings.Derive), so the whole refresh costs
// O(dirty) — independent of |E| — and swaps can run at very high frequency.
// Callers must hold buildMu.
func (db *DB) refreshSnapshot(prev *snapshot) (*snapshot, error) {
	start := time.Now()
	v := db.captureView()
	if len(v.ids) == 0 {
		return prev, nil
	}
	store := db.fold(prev, v)
	post, err := prev.post.Derive(store, v.ids)
	if err != nil {
		return nil, err
	}
	ns := &snapshot{
		store:       store,
		post:        post,
		measure:     prev.measure,
		byID:        v.byID,
		pool:        prev.pool,
		buildTime:   prev.buildTime,
		refreshTime: time.Since(start),
	}
	return db.publish(ns, v), nil
}

// publish swaps the new snapshot in and drops the pending records it folded.
// The ingest lock makes the swap and the drop one atomic step against writers
// and readers of the pending tail (visitsLocked); builders are already
// serialized by buildMu, so the pointer swap itself never races another
// publisher, and each captured prefix is still a prefix of its tail.
func (db *DB) publish(ns *snapshot, v view) *snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	ns.seq = v.seq
	db.swapIn(ns)
	for i, e := range v.ids {
		db.dropPending(e, len(v.recs[i]))
	}
	return ns
}

// dropPending drops the first n of e's pending records, which the serving
// snapshot now covers; a surviving remainder is copied so the folded prefix
// can be freed, and an emptied map is replaced, since a map never shrinks.
// Callers hold mu.
func (db *DB) dropPending(e trace.EntityID, n int) {
	if rest := db.pending[e][n:]; len(rest) > 0 {
		db.pending[e] = slices.Clone(rest)
	} else if delete(db.pending, e); len(db.pending) == 0 {
		db.pending = map[trace.EntityID][]trace.Record{}
	}
}

// swapIn publishes ns as the serving snapshot under the next generation —
// the one place a generation moves, so generations only grow and every
// publish, the only thing that retires dirt, moves the cache version.
// Callers serialize publishers (buildMu, or a DB no one else holds yet).
func (db *DB) swapIn(ns *snapshot) {
	ns.generation = 1
	if prev := db.snap.Load(); prev != nil {
		ns.generation = prev.generation + 1
	}
	ns.swappedAt = time.Now()
	db.snap.Store(ns)
}

// newMeasure constructs the configured association degree measure.
func (db *DB) newMeasure() (adm.Measure, error) {
	if db.jaccard {
		return adm.NewJaccardADM(db.ix.Height())
	}
	return adm.NewPaperADM(db.ix.Height(), db.measureU, db.measureV)
}

// covering returns the serving snapshot if it covers every write
// acknowledged so far — nil if there is none, or dirt is pending — and the
// write sequence. Both are read under the ingest lock publish swaps under,
// so no publish can land between the dirt check and the load. The query
// path's fast path and the DB's cache version make exactly this check.
func (db *DB) covering() (*snapshot, uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(db.pending) > 0 {
		return nil, db.writeSeq
	}
	return db.snap.Load(), db.writeSeq
}

// SnapshotGeneration returns the serving snapshot's generation (1 for the
// first build, +1 per swap) and whether a snapshot exists at all — one atomic
// load. A generation alone does not promise freshness: read PendingEntities
// first, as shard's cluster cache does, to know it covers every write.
func (db *DB) SnapshotGeneration() (uint64, bool) {
	s := db.snap.Load()
	if s == nil {
		return 0, false
	}
	return s.generation, true
}

// PendingEntities returns the number of entities with visits the serving
// snapshot does not cover yet — IndexStats().DirtyCount without the index
// walk. Zero means the generation SnapshotGeneration reports afterwards
// covers every write acknowledged before this call (dirt is only retired by
// a publish, and generations only grow).
func (db *DB) PendingEntities() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.pending)
}

// snapshotForQuery returns the snapshot a query answers over: one covering
// every write acknowledged before the query began (read-your-writes).
//
//   - nothing dirty — the hot path: one shared-lock check, then a lock-free
//     search, never waiting on a build;
//   - otherwise the query waits on buildMu. If the build it waited out
//     published a snapshot covering the write sequence the query read at
//     start, it answers from that even if newer writes have arrived since;
//     else it becomes the builder: it folds the dirt aside, or builds the
//     first index, and swaps before answering.
func (db *DB) snapshotForQuery() (*snapshot, error) {
	s, seq := db.covering()
	if s != nil {
		return s, nil
	}
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	// Every publisher holds buildMu, so s is stable from here on.
	s = db.snap.Load()
	switch {
	case s == nil:
		return db.buildSnapshot()
	case s.seq >= seq:
		return s, nil
	}
	return db.refreshSnapshot(s)
}

// lookup resolves an entity name against a snapshot: the ID comes from the
// ingest registry (IDs are append-only, so a resolved ID stays valid forever)
// and the sequences from the snapshot's frozen store. Both failure modes name
// the entity: names never ingested, and names whose visits arrived after the
// queried snapshot was built (the next build or Refresh folds them in).
func (db *DB) lookup(s *snapshot, entity string) (*trace.Sequences, error) {
	db.mu.RLock()
	e, ok := db.names[entity]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("digitaltraces: unknown entity %q", entity)
	}
	return s.sequences(e, entity)
}

// sequences returns an entity's frozen sequences from this snapshot, or the
// canonical not-yet-indexed error naming the entity (shared by lookup and
// the batch path so the two can never drift apart).
func (s *snapshot) sequences(e trace.EntityID, name string) (*trace.Sequences, error) {
	q := s.store.Get(e)
	if q == nil {
		return nil, fmt.Errorf("digitaltraces: entity %q has no indexed visits yet (ingested after the serving snapshot was built; Refresh or the next query folds it in)", name)
	}
	return q, nil
}
