package digitaltraces

// Build-aside snapshot machinery — the non-blocking index maintenance core.
//
// A DB serves queries from an immutable *snapshot published through an
// atomic.Pointer. Builders (BuildIndex, Refresh, and the query path's lazy
// escalation) construct the next snapshot entirely off to the side — from a
// visit view captured under the ingest lock — and then swap the pointer, so
// a multi-second rebuild never blocks a read the previous snapshot can
// serve: queries arriving while a build is in flight keep answering from it
// unless it misses a write acknowledged before they began. See DESIGN.md
// "Concurrency model" for the full contract.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// snapshot is one frozen, fully consistent index state: the sequence store,
// the MinSigTree over it, the degree measure, the indexed time horizon and
// the name table of every entity that existed at capture. A snapshot is
// immutable after publication — the tree is only ever read (core.Tree.TopK is
// verified read-only), the store is never Put into again, and byID is a
// length-capped prefix whose elements never change — so any number of queries
// search it lock-free while maintenance builds the next snapshot aside
// instead of mutating this one.
type snapshot struct {
	store   *trace.Store
	tree    *core.Tree
	measure adm.Measure
	horizon trace.Time
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
// tree, store, measure and name table are immutable after publication.
func (s *snapshot) topK(q *trace.Sequences, k int) ([]Match, QueryStats, error) {
	startT := time.Now()
	res, stats, err := s.tree.TopK(q, k, s.measure)
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

// view is the ingest-side state a builder captured under the ingest lock:
// frozen visit slice headers (appends only ever write past these lengths or
// reallocate, so the captured headers are stable), the name-table prefix, the
// per-entity visit count the new snapshot will cover (publish retires exactly
// that dirt — an entity that received further visits mid-build stays dirty),
// the refresh work list, and the write sequence at capture: the new snapshot
// covers every visit counted up to it (the dirty entities' whole logs are
// folded, and every other entity is clean in the snapshot it derives from).
type view struct {
	visits map[trace.EntityID][]trace.Record
	byID   []string
	folded map[trace.EntityID]int // entity → visit count folded into the build
	dirty  []trace.EntityID       // dirty entities at capture, ascending
	seq    uint64
}

// captureView snapshots the ingest side. dirtyOnly restricts the visit copy
// to dirty entities (the refresh path); a full capture covers every entity
// (the build path).
func (db *DB) captureView(dirtyOnly bool) view {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := view{byID: db.byID[:len(db.byID):len(db.byID)], seq: db.writeSeq}
	if dirtyOnly {
		v.visits = make(map[trace.EntityID][]trace.Record, len(db.dirty))
		v.folded = make(map[trace.EntityID]int, len(db.dirty))
		v.dirty = make([]trace.EntityID, 0, len(db.dirty))
		for e := range db.dirty {
			recs := db.visits[e]
			v.visits[e] = recs[:len(recs):len(recs)]
			v.folded[e] = len(recs)
			v.dirty = append(v.dirty, e)
		}
		slices.Sort(v.dirty)
	} else {
		v.visits = make(map[trace.EntityID][]trace.Record, len(db.visits))
		v.folded = make(map[trace.EntityID]int, len(db.visits))
		for e, recs := range db.visits {
			v.visits[e] = recs[:len(recs):len(recs)]
			v.folded[e] = len(recs)
		}
	}
	return v
}

// buildSnapshot constructs a full snapshot from a freshly captured visit view
// and publishes it. Callers must hold buildMu. Cost is O(|E|·C·nh) signature
// hashing plus tree insertion (Section 4.3) — all of it outside every lock
// queries touch.
func (db *DB) buildSnapshot() (*snapshot, error) {
	start := time.Now()
	if prev := db.snap.Load(); db.unionFold && prev != nil {
		return db.rebuildUnionSnapshot(prev, start)
	}
	v := db.captureView(false)
	if len(v.visits) == 0 {
		return nil, fmt.Errorf("digitaltraces: no visits to index")
	}
	var horizon trace.Time
	for _, recs := range v.visits {
		for _, r := range recs {
			if r.End > horizon {
				horizon = r.End
			}
		}
	}
	store := trace.NewStore(db.ix)
	ids := make([]trace.EntityID, 0, len(v.visits))
	for e := range v.visits {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	for _, e := range ids {
		store.AddRecords(e, v.visits[e])
	}
	fam, err := sighash.NewFamily(db.ix, horizon, db.nh, db.seed)
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(db.ix, fam, store, ids)
	if err != nil {
		return nil, err
	}
	measure, err := db.newMeasure()
	if err != nil {
		return nil, err
	}
	ns := &snapshot{
		store:     store,
		tree:      tree,
		measure:   measure,
		horizon:   horizon,
		byID:      v.byID,
		buildTime: time.Since(start),
	}
	return db.publish(ns, v), nil
}

// rebuildUnionSnapshot is the full-rebuild path for union-fold DBs (mapped or
// bulk loads whose visit log does not retain the folded history): the
// previous snapshot's store is the only complete record of each entity's
// cells, so the rebuild derives from it and unions the captured visits on
// top — exact because cell sets union idempotently, whether the log holds an
// entity's full history, only a suffix, or nothing at all. The horizon grows
// to cover the new visits and the whole tree re-hashes (the hash family is
// horizon-parameterized), reading sequences through the backing as needed;
// the buffer pool carries over. Callers must hold buildMu.
func (db *DB) rebuildUnionSnapshot(prev *snapshot, start time.Time) (*snapshot, error) {
	v := db.captureView(false)
	horizon := prev.horizon
	for _, recs := range v.visits {
		for _, r := range recs {
			if r.End > horizon {
				horizon = r.End
			}
		}
	}
	store := prev.store.Derive()
	ids := make([]trace.EntityID, 0, len(v.visits))
	for e := range v.visits {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	merged := make([]*trace.Sequences, len(ids))
	parallel.For(len(ids), func(i int) {
		e := ids[i]
		merged[i] = trace.NewSequencesMerged(db.ix, e, v.visits[e], prev.store.Get(e))
	})
	for _, s := range merged {
		store.Put(s)
	}
	all := store.Entities()
	all = append([]trace.EntityID(nil), all...)
	slices.Sort(all)
	fam, err := sighash.NewFamily(db.ix, horizon, db.nh, db.seed)
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(db.ix, fam, store, all)
	if err != nil {
		return nil, err
	}
	measure, err := db.newMeasure()
	if err != nil {
		return nil, err
	}
	ns := &snapshot{
		store:     store,
		tree:      tree,
		measure:   measure,
		horizon:   horizon,
		byID:      v.byID,
		pool:      prev.pool,
		buildTime: time.Since(start),
	}
	return db.publish(ns, v), nil
}

// refreshSnapshot folds the dirty entities into the next snapshot aside
// (Section 4.2.3 incremental maintenance) and publishes it. prev is never
// mutated, so queries pinned to it keep searching it bit-identically.
//
// The refresh is copy-on-write: the store derives a child sharing every
// clean entity's sequences (trace.Store.Derive) and the tree path-copies
// only the nodes the dirty entities' signatures route through
// (core.Tree.Derive), so the whole refresh costs O(dirty) — independent of
// |E| — and swaps can run at very high frequency.
//
// A dirty visit past prev's indexed horizon fails with ErrBeyondHorizon: the
// hash family is parameterized by the horizon, so only a full buildSnapshot
// can absorb it. Callers must hold buildMu.
func (db *DB) refreshSnapshot(prev *snapshot) (*snapshot, error) {
	start := time.Now()
	v := db.captureView(true)
	if len(v.dirty) == 0 {
		return prev, nil
	}
	for _, e := range v.dirty {
		for _, r := range v.visits[e] {
			if r.End > prev.horizon {
				return nil, ErrBeyondHorizon
			}
		}
	}
	var (
		store *trace.Store
		tree  *core.Tree
		err   error
	)
	// Repeated incremental updates leave group signatures conservatively
	// loose (each embedded removal may strand a too-small coordinate);
	// answers stay exact but pruning decays. Once the lineage has absorbed
	// more removals than it has entities, pay one full-copy refresh — the
	// replay recomputes tight signatures — then return to O(dirty) derives.
	// At most one O(|E|) replay per |E| updates keeps the amortized cost
	// O(1) per update.
	retighten := prev.tree.Removals() > prev.tree.Len()
	if retighten {
		store = prev.store.Clone()
		if tree, err = prev.tree.Clone(store); err != nil {
			return nil, err
		}
		for _, e := range v.dirty {
			if db.unionFold {
				store.Put(trace.NewSequencesMerged(db.ix, e, v.visits[e], prev.store.Get(e)))
			} else {
				store.AddRecords(e, v.visits[e])
			}
			if err := tree.Update(e); err != nil {
				return nil, err
			}
		}
	} else {
		store = prev.store.Derive()
		for _, s := range db.stageDirtySequences(v, prev) {
			store.Put(s)
		}
		if tree, err = prev.tree.Derive(store, v.dirty); err != nil {
			return nil, err
		}
	}
	ns := &snapshot{
		store:       store,
		tree:        tree,
		measure:     prev.measure,
		horizon:     prev.horizon,
		byID:        v.byID,
		pool:        prev.pool,
		buildTime:   prev.buildTime,
		refreshTime: time.Since(start),
	}
	return db.publish(ns, v), nil
}

// stageDirtySequences converts the dirty entities' captured visit histories
// into ST-cell sequences, in v.dirty order. Sequence building (cell
// expansion plus per-level sort-dedup) is the refresh path's second-largest
// cost after signature hashing and equally per-entity independent, so it
// fans out across a bounded worker pool; each worker touches only its own
// output slot. A union-fold DB's captured visits may be only a suffix of an
// entity's history (the rest lives in prev's store, possibly on disk), so
// they union into the previously folded sequence instead of replacing it.
func (db *DB) stageDirtySequences(v view, prev *snapshot) []*trace.Sequences {
	out := make([]*trace.Sequences, len(v.dirty))
	parallel.For(len(v.dirty), func(i int) {
		e := v.dirty[i]
		if db.unionFold {
			out[i] = trace.NewSequencesMerged(db.ix, e, v.visits[e], prev.store.Get(e))
		} else {
			out[i] = trace.NewSequences(db.ix, e, v.visits[e])
		}
	})
	return out
}

// publish swaps the new snapshot in and retires the dirt it folded. The
// ingest lock makes the swap and the dirty-set trim one atomic step against
// writers; builders are already serialized by buildMu, so the pointer swap
// itself never races another publisher.
func (db *DB) publish(ns *snapshot, v view) *snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	ns.seq = v.seq
	db.swapIn(ns)
	for e, n := range v.folded {
		if db.dirty[e] && len(db.visits[e]) == n {
			delete(db.dirty, e)
		}
	}
	return ns
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
	if len(db.dirty) > 0 {
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
	return len(db.dirty)
}

// snapshotForQuery returns the snapshot a query answers over: one covering
// every write acknowledged before the query began (read-your-writes).
//
//   - nothing dirty — the hot path: one shared-lock check, then a lock-free
//     search, never waiting on a build;
//   - otherwise the query waits on buildMu. If the build it waited out
//     published a snapshot covering the write sequence the query read at
//     start, it answers from that even if newer writes have arrived since;
//     else it becomes the builder: it folds the dirt aside (escalating to a
//     full rebuild when a dirty visit extends past the indexed horizon, so
//     one out-of-horizon ingest can never wedge the query path), or builds
//     the first index, and swaps before answering.
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
	ns, err := db.refreshSnapshot(s)
	if errors.Is(err, ErrBeyondHorizon) {
		return db.buildSnapshot()
	}
	return ns, err
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
