package digitaltraces

// Build-aside snapshot machinery — the non-blocking index maintenance core.
//
// A DB serves queries from an immutable *snapshot published through an
// atomic.Pointer. Builders (BuildIndex, an open, and each acknowledged
// write's fold) construct the next snapshot entirely off to the side —
// folding the pending visits captured under the ingest lock into the
// previous snapshot's sequences — and then swap the pointer, dropping what
// they folded, so a multi-second rebuild never blocks a read: queries
// arriving while a build is in flight keep answering from the previous
// snapshot, which covers every write acknowledged so far. See DESIGN.md
// "Concurrency model" for the full contract.

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/trace"
)

// snapshot is one frozen, fully consistent index state: the sequence store,
// the postings over it and the name and tie-key tables of
// every entity that existed at capture. A snapshot is immutable after
// publication — the postings are only ever read (core.Postings searches are
// read-only), the store is never Put into again, and byID and keys are
// length-capped prefixes whose elements never change — so any number of
// queries search it lock-free while maintenance builds the next snapshot
// aside instead of mutating this one.
type snapshot struct {
	store *trace.Store
	post  *core.Postings
	byID  []string // entity name by EntityID, frozen at capture
	keys  []uint32 // tie key by EntityID, frozen at capture

	// dirty is the bounded log of what the recent folds changed, oldest
	// first: the dirty entity sets of the last ≤ dirtyLogLen publishes up to
	// this one, when those were folds back to back — empty after a build, an
	// open or a bulk load. The query cache revalidates against it (cache.go).
	dirty [][]trace.EntityID

	generation  uint64        // 1 for the first build, +1 per swap
	seq         uint64        // write sequence the build's view captured (0 for a bulk load)
	buildTime   time.Duration // duration of the lineage's last full BuildIndex
	refreshTime time.Duration // duration of the fold that published it (0 after a full build)
	swappedAt   time.Time     // when this snapshot was published
}

// topK runs the exact search against this frozen snapshot. No locks: the
// postings, store and name table are immutable after publication.
func (s *snapshot) topK(q *trace.Sequences, k int, measure adm.Measure) ([]Match, QueryStats, error) {
	startT := time.Now()
	res, stats, err := s.post.TopK(q, k, measure)
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
	keys []uint32
	ids  []trace.EntityID
	recs [][]trace.Record // recs[i]: ids[i]'s pending records at capture
	seq  uint64
}

// captureView snapshots the ingest side's pending visits.
func (db *DB) captureView() view {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := view{byID: db.byID[:len(db.byID):len(db.byID)], keys: db.keys[:len(db.keys):len(db.keys)], seq: db.writeSeq}
	v.ids = slices.Sorted(maps.Keys(db.pending))
	v.recs = make([][]trace.Record, len(v.ids))
	for i, e := range v.ids {
		recs := db.pending[e]
		v.recs[i] = recs[:len(recs):len(recs)]
	}
	return v
}

// stage folds each entity's records into the sequences the snapshots in
// prevs serve for it (nil snapshots are skipped) — the one staging step every
// build runs. Cell sets union idempotently, so the result is exact whatever
// the snapshots already cover. Sequence building (cell expansion plus
// per-level sort-dedup) is a fold's largest cost and per-entity independent,
// so it fans out across a bounded worker pool; each worker touches only its
// own output slot.
func (db *DB) stage(ids []trace.EntityID, recs [][]trace.Record, prevs ...*snapshot) []*trace.Sequences {
	out := make([]*trace.Sequences, len(ids))
	parallel.For(len(ids), 0, func(i int) {
		var buf [2]*trace.Sequences // a build folds over at most two snapshots
		folded := buf[:0]
		for _, p := range prevs {
			if p != nil {
				folded = append(folded, p.store.Get(ids[i]))
			}
		}
		out[i] = trace.NewSequencesMerged(db.ix, ids[i], recs[i], folded...)
	})
	return out
}

// fold stages ids' records over prevs into the next store: a copy-on-write
// child of prevs[0]'s (trace.Store.Derive) sharing every other entity's
// sequences, or a fresh store for the first build.
func (db *DB) fold(ids []trace.EntityID, recs [][]trace.Record, prevs ...*snapshot) *trace.Store {
	store := trace.NewStore(db.ix)
	if prevs[0] != nil {
		store = prevs[0].store.Derive()
	}
	for _, s := range db.stage(ids, recs, prevs...) {
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
	store := db.fold(v.ids, v.recs, prev)
	post, err := core.BuildPostings(db.ix, store, store.Entities())
	if err != nil {
		return nil, err
	}
	ns := &snapshot{
		store:     store,
		post:      post,
		byID:      v.byID,
		keys:      v.keys,
		buildTime: time.Since(start),
	}
	return db.publish(ns, v), nil
}

// refreshSnapshot folds the pending visits into the next snapshot aside
// (Section 4.2.3 incremental maintenance) and publishes it — what an
// acknowledged write pays. prev is never mutated, so queries pinned to it
// keep searching it bit-identically.
//
// The fold is copy-on-write: the store derives a child sharing every clean
// entity's sequences (trace.Store.Derive) and the postings add only the
// dirty entities' pairs (core.Postings.Derive), so the whole fold costs
// O(dirty) — independent of |E| — and swaps can run at very high frequency.
// Callers must hold buildMu.
func (db *DB) refreshSnapshot(prev *snapshot) error {
	start := time.Now()
	v := db.captureView()
	if len(v.ids) == 0 {
		return nil
	}
	store := db.fold(v.ids, v.recs, prev)
	post, err := prev.post.Derive(store, v.ids)
	if err != nil {
		return err
	}
	ns := &snapshot{
		store:       store,
		post:        post,
		byID:        v.byID,
		keys:        v.keys,
		dirty:       appendDirty(prev.dirty, v.ids),
		buildTime:   prev.buildTime,
		refreshTime: time.Since(start),
	}
	db.publish(ns, v)
	return nil
}

// publish swaps the new snapshot in and drops the pending records it folded.
// The ingest lock makes the swap and the drop one atomic step against writers
// and readers of the pending tail (visitsLocked); builders are already
// serialized by buildMu, so the pointer swap itself never races another
// publisher, and each captured prefix is still a prefix of its tail.
func (db *DB) publish(ns *snapshot, v view) *snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.publishLocked(ns, v)
	return ns
}

// publishLocked is publish for a caller already holding mu.
func (db *DB) publishLocked(ns *snapshot, v view) {
	ns.seq = v.seq
	db.swapIn(ns)
	for i, e := range v.ids {
		db.dropPending(e, len(v.recs[i]))
	}
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

// SnapshotGeneration returns the serving snapshot's generation (1 for the
// first build, +1 per swap) and whether a snapshot exists at all — one atomic
// load. A published snapshot covers every write acknowledged before the load
// (AddVisits folds before it returns), so the generation is a version of
// everything acknowledged so far: shard's cluster cache keys by it.
func (db *DB) SnapshotGeneration() (uint64, bool) {
	s := db.snap.Load()
	if s == nil {
		return 0, false
	}
	return s.generation, true
}

// ack returns once the serving snapshot covers write sequence seq: at once
// when a publish already does — group commit, a fold in flight captured the
// write — and otherwise after folding every pending visit aside and
// publishing. Before the first publish there is nothing to cover it with;
// the writer still takes buildMu, so a first build whose view missed the
// write is waited out and then folded past.
func (db *DB) ack(seq uint64) error {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	s := db.snap.Load()
	if s == nil || s.seq >= seq {
		return nil
	}
	return db.refreshSnapshot(s)
}

// snapshotForQuery returns the snapshot a query answers over: the published
// one, which covers every write acknowledged before the query began, with no
// lock and no wait. Only before the first publish does a query build the
// first index itself (or wait out the build in flight).
func (db *DB) snapshotForQuery() (*snapshot, error) {
	if s := db.snap.Load(); s != nil {
		return s, nil
	}
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	if s := db.snap.Load(); s != nil {
		return s, nil
	}
	return db.buildSnapshot()
}

// lookup resolves an entity name against a snapshot: the ID comes from the
// ingest registry (IDs are append-only, so a resolved ID stays valid forever)
// and the sequences from the snapshot's frozen store. Both failure modes name
// the entity: names never ingested, and names whose visits arrived after the
// queried snapshot was built (a write in flight, not yet acknowledged).
func (db *DB) lookup(s *snapshot, entity string) (*trace.Sequences, error) {
	db.mu.RLock()
	e, ok := db.names[entity]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("digitaltraces: unknown entity %q", entity)
	}
	q := s.store.Get(e)
	if q == nil {
		return nil, fmt.Errorf("digitaltraces: entity %q has no indexed visits yet (its first write is still in flight)", entity)
	}
	return q, nil
}
