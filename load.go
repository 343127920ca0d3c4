package digitaltraces

// Warm restart: DB.LoadIndex republishes a SaveIndex snapshot over a
// re-ingested visit log, so a restarted process serves queries without
// paying the O(|E|·C·nh) signature-hashing rebuild. The snapshot stores
// digests, names and scalars — not visits — so the operational contract is
// "replay the log, then LoadIndex": the load re-maps every stored entity
// onto the current log by name, reconstructs the exact store state the
// signatures describe, and swaps the result in through the same
// atomic.Pointer publication every other builder uses.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/trace"
)

// ErrNoVisits reports a LoadIndex against a DB whose visit log is empty: a
// snapshot stores signatures, not visits, so the log must be re-ingested
// before the index can be published over it.
var ErrNoVisits = errors.New("digitaltraces: LoadIndex on an empty DB — re-ingest the visit log first (a snapshot stores signatures, not visits)")

// LoadIndex reads a SaveIndex snapshot and publishes it as the serving
// index — for a freshly restarted DB, as generation 1 — via the same atomic
// snapshot swap BuildIndex uses, so queries racing the load keep answering
// from whatever was published before (nothing, on a fresh start: they wait).
//
// The snapshot resolves entities by name against the current visit log; the
// save-time ID order is irrelevant, so the log may have been re-ingested in
// any entity order. The header scalars (time unit, epoch, measure, hash
// family) must match this DB's configuration — a mismatch is a descriptive
// error, never a silently different answer. Entities whose
// logs grew past what the snapshot covers (and entities the snapshot does
// not know at all) land in the dirty set and serve from the snapshot state
// until the next Refresh — or the next query — folds them, exactly like
// visits ingested after a build; per-entity visit order must be replayed
// as ingested for the covered-prefix reconstruction to hold. A log that
// fell *behind* the snapshot (fewer visits than a signature covers) cannot
// be reconstructed and errors.
func (db *DB) LoadIndex(r io.Reader) error { return db.loadIndex(r, false) }

// LoadIndexLenient loads like LoadIndex but skips snapshot entities whose
// names are not in the current visit log instead of erroring. Strict loads
// exist to catch a drifted log on a single DB — but a slot-routed cluster
// section legitimately describes a superset of one shard's current log: the
// saving shard may have held entities the cluster has since migrated away,
// or a reassigned slot map may route them elsewhere on this boot. Skipped
// entities simply stay absent here (and warm wherever they now live); every
// entity the names do resolve loads with LoadIndex's full validation, and
// unresolved *residents* still land dirty via the post-load recompute, so
// leniency can only cost warmth, never exactness.
func (db *DB) LoadIndexLenient(r io.Reader) error { return db.loadIndex(r, true) }

func (db *DB) loadIndex(r io.Reader, lenient bool) error {
	start := time.Now()
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	v := db.captureView(false)
	if len(v.visits) == 0 {
		return ErrNoVisits
	}
	byName := make(map[string]trace.EntityID, len(v.byID))
	for id, name := range v.byID {
		byName[name] = trace.EntityID(id)
	}
	// Stage every captured entity's sequences up front, in parallel: the
	// cell expansion + per-level sort-dedup is the dominant cost of a load
	// (there is no hashing to hide it behind) and is per-entity independent.
	// Entities the snapshot turns out not to cover stay out of the store —
	// a handful of wasted builds, never a behavioral difference.
	ids := make([]trace.EntityID, 0, len(v.visits))
	for e := range v.visits {
		ids = append(ids, e)
	}
	slices.Sort(ids)
	staged := make([]*trace.Sequences, len(ids))
	parallel.For(len(ids), func(i int) {
		staged[i] = trace.NewSequences(db.ix, ids[i], v.visits[ids[i]])
	})
	stagedBy := make(map[trace.EntityID]*trace.Sequences, len(ids))
	for i, e := range ids {
		stagedBy[e] = staged[i]
	}

	store := trace.NewStore(db.ix)
	clean := make(map[trace.EntityID]int) // entities whose dirt publication retires
	resolve := func(se core.SnapshotEntity) (trace.EntityID, bool, error) {
		e, ok := byName[se.Name]
		if !ok {
			if lenient {
				return 0, false, nil // not this DB's entity anymore; it warms elsewhere
			}
			return 0, false, fmt.Errorf("digitaltraces: snapshot entity %q is not in the visit log — re-ingest the full record set before LoadIndex", se.Name)
		}
		recs := v.visits[e]
		switch {
		case se.Folded == core.FoldedUnknown:
			// Dirty at save time: the signature describes no reconstructible
			// visit prefix. Leave the entity out; the first refresh re-signs
			// it from the current log.
			return 0, false, nil
		case int(se.Folded) > len(recs):
			return 0, false, fmt.Errorf("digitaltraces: entity %q has %d visits in the log but the snapshot's signature covers %d — the log is behind the snapshot; re-ingest it fully before LoadIndex", se.Name, len(recs), se.Folded)
		case int(se.Folded) < len(recs):
			// Newer visits than the signature covers: serve the covered
			// prefix (tree and store must agree within a snapshot) and leave
			// the entity dirty so the suffix folds in next.
			store.Put(trace.NewSequences(db.ix, e, recs[:se.Folded]))
			return e, true, nil
		default:
			store.Put(stagedBy[e])
			clean[e] = len(recs)
			return e, true, nil
		}
	}
	tree, info, err := core.ReadSnapshotWith(r, db.ix, store, resolve)
	if err != nil {
		return fmt.Errorf("digitaltraces: loading index: %w", err)
	}
	if err := db.checkSnapshotInfo(info); err != nil {
		return err
	}
	measure, err := db.newMeasure()
	if err != nil {
		return err
	}
	ns := &snapshot{
		store:   store,
		tree:    tree,
		measure: measure,
		horizon: info.Horizon,
		byID:    v.byID,
		// The load *is* this lineage's full construction; report its cost
		// where a cold lineage reports BuildIndex's.
		buildTime: time.Since(start),
	}
	// Publish, and recompute the dirty set over the captured registry: an
	// entity is clean exactly when the published tree covers its current
	// visit count; everything else — skipped-as-stale, covered-prefix,
	// unknown to the snapshot, or grown since capture — must stay (or
	// become) dirty so the next Refresh folds it. Entities registered after
	// the capture were marked dirty by their own ingest and are untouched.
	db.mu.Lock()
	ns.generation = 1
	if prev := db.snap.Load(); prev != nil {
		ns.generation = prev.generation + 1
	}
	ns.swappedAt = time.Now()
	db.snap.Store(ns)
	for id := range v.byID {
		e := trace.EntityID(id)
		if n, ok := clean[e]; ok && len(db.visits[e]) == n {
			delete(db.dirty, e)
		} else {
			db.dirty[e] = true
		}
	}
	db.mu.Unlock()
	return nil
}

// checkSnapshotInfo verifies a loaded snapshot's recorded scalars against
// this DB's configuration. The hash family and the discretization + measure
// scalars all change what an answer means, so any mismatch is an error
// naming both sides rather than a silent semantic shift.
func (db *DB) checkSnapshotInfo(info *core.SnapshotInfo) error {
	if info.NH != db.nh {
		return fmt.Errorf("digitaltraces: snapshot was built with %d hash functions, DB is configured with %d (WithHashFunctions)", info.NH, db.nh)
	}
	if info.Seed != db.seed {
		return fmt.Errorf("digitaltraces: snapshot was built with hash seed %d, DB is configured with %d (WithSeed)", info.Seed, db.seed)
	}
	m := info.Meta
	if m.TimeUnit != db.unit {
		return fmt.Errorf("digitaltraces: snapshot discretized time into %v units, DB uses %v (WithTimeUnit)", m.TimeUnit, db.unit)
	}
	if epoch, set, _ := db.epochInfo(); set && epoch.UnixNano() != m.EpochNanos {
		return fmt.Errorf("digitaltraces: snapshot epoch %v differs from the DB's %v (WithEpoch)", time.Unix(0, m.EpochNanos).UTC(), epoch.UTC())
	}
	if m.Jaccard != db.jaccard {
		return fmt.Errorf("digitaltraces: snapshot used jaccard=%t measure, DB is configured with jaccard=%t", m.Jaccard, db.jaccard)
	}
	if !db.jaccard && (m.MeasureU != db.measureU || m.MeasureV != db.measureV) {
		return fmt.Errorf("digitaltraces: snapshot measure exponents (u=%g, v=%g) differ from the DB's (u=%g, v=%g)", m.MeasureU, m.MeasureV, db.measureU, db.measureV)
	}
	return nil
}
