package digitaltraces

// Loading a saved index: two loaders over the one decoder.
//
// LoadIndex is the warm restart: "replay the log, then LoadIndex". It reads
// digests, names and scalars — never visits or sequences — re-maps every
// stored entity onto the re-ingested log by name, reconstructs the exact store
// state the signatures describe, and so skips the O(|E|·C·nh) hashing rebuild.
//
// LoadMappedIndex is the out-of-core boot: it serves a file saved with its
// sequence section straight off a read-only mapping. Only the scalars, names,
// entity table and cell index decode eagerly; sequence pages fault in as
// queries touch them, so time-to-first-query is the O(entities · levels)
// signature replay and resident memory follows the hot entities, not the
// index size.
//
// Both publish through the same atomic.Pointer swap every builder uses, so
// queries racing a load keep answering from whatever was published before.

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/mmap"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/secfile"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// ErrNoVisits reports a LoadIndex against a DB whose visit log is empty: a
// snapshot stores signatures, not visits, so the log must be re-ingested
// before the index can be published over it.
var ErrNoVisits = errors.New("digitaltraces: LoadIndex on an empty DB — re-ingest the visit log first (a snapshot stores signatures, not visits)")

// LoadIndex reads a saved index — with or without the sequence section; it
// stops reading before one — and publishes it as the serving index (for a
// freshly restarted DB, as generation 1).
//
// The snapshot resolves entities by name against the current visit log; the
// save-time ID order is irrelevant, so the log may have been re-ingested in
// any entity order. The stored scalars (time unit, epoch, measure, hash
// family) must match this DB's configuration — a mismatch is a descriptive
// error, never a silently different answer. Entities whose logs grew past
// what the snapshot covers (and entities the snapshot does not know at all)
// land in the dirty set and serve from the snapshot state until the next
// Refresh — or the next query — folds them, exactly like visits ingested
// after a build; per-entity visit order must be replayed as ingested for the
// covered-prefix reconstruction to hold. A log that fell *behind* the
// snapshot (fewer visits than a signature covers) cannot be reconstructed and
// errors.
func (db *DB) LoadIndex(r io.Reader) error { return db.loadIndex(r, false) }

// LoadIndexLenient loads like LoadIndex but skips snapshot entities whose
// names are not in the current visit log instead of erroring. Strict loads
// catch a drifted log on a single DB — but a slot-routed cluster section
// legitimately describes a superset of one shard's current log: entities
// since migrated away, or routed elsewhere by a reassigned slot map. Skipped
// entities stay absent here (and warm wherever they now live); every entity
// the names do resolve loads with LoadIndex's full validation, and unresolved
// *residents* still land dirty via the post-load recompute, so leniency can
// only cost warmth, never exactness.
func (db *DB) LoadIndexLenient(r io.Reader) error { return db.loadIndex(r, true) }

func (db *DB) loadIndex(r io.Reader, lenient bool) error {
	start := time.Now()
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	v := db.captureView(false)
	if len(v.visits) == 0 {
		return ErrNoVisits
	}
	snap, err := db.decodeIndex(secfile.NewReader(r))
	if err != nil {
		return err
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
	ids := slices.Sorted(maps.Keys(v.visits))       // ingest order: the visit slices' allocation order
	staged := make([]*trace.Sequences, len(v.byID)) // by entity ID
	parallel.For(len(ids), func(i int) {
		staged[ids[i]] = trace.NewSequences(db.ix, ids[i], v.visits[ids[i]])
	})

	store := trace.NewStore(db.ix)
	covered := make(map[trace.EntityID]uint32) // entities loaded whole → the visit count their signature covers
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
		default:
			store.Put(staged[e])
			covered[e] = se.Folded
		}
		return e, true, nil
	}
	tree, err := snap.Tree(db.ix, store, resolve)
	if err != nil {
		return fmt.Errorf("digitaltraces: loading index: %w", err)
	}
	ns, err := db.loadedSnapshot(store, tree, snap.Info.Horizon, start)
	if err != nil {
		return err
	}
	ns.byID = v.byID
	db.mu.Lock()
	db.publishLoaded(ns, covered)
	db.mu.Unlock()
	return nil
}

// LoadMappedIndex maps the index file at path read-only and serves it in
// place. The file must carry the sequence section (SaveMappedIndex); one
// without is refused by name. Sequences are read through a buffer pool over
// the mapping (page-cache backed); where mmap is unavailable the mapping
// degrades to pread — same semantics, no page cache residency guarantees.
//
// Mapped snapshots resolve entities by ID — the sequence blobs embed the
// save-time IDs — so unlike LoadIndex there is no name-based remapping: an
// empty registry adopts the file's names and, when none is fixed yet, its
// epoch (the no-re-ingest boot), while a populated one must agree on every
// (name, ID) pair, which holds whenever the same visit log was re-ingested in
// its original order. The stored scalars must match the DB's configuration,
// as for LoadIndex. A refused load leaves the DB exactly as it found it: every
// check runs before the first field is written.
//
// After a mapped load the DB is in union-fold mode: new visits fold in by
// unioning into the previously folded sequences (exact — cell sets union
// idempotently), so ingest, Refresh and queries all keep working even though
// the visit log does not cover the index. SaveIndex is refused in this mode;
// use SaveMappedIndex. Close unmaps the file — stop queries first.
func (db *DB) LoadMappedIndex(path string) error {
	m, err := mmap.Open(path)
	if err != nil {
		return fmt.Errorf("digitaltraces: mapping index %s: %w", path, err)
	}
	if err := db.LoadMappedIndexAt(m, m.Size()); err != nil {
		m.Close()
		return err
	}
	db.mu.Lock()
	db.mappings = append(db.mappings, m)
	db.mu.Unlock()
	return nil
}

// LoadMappedIndexAt is LoadMappedIndex over an arbitrary ReaderAt — a
// section of a larger mapping, as in shard cluster envelopes. The caller
// owns r's lifetime and must keep it readable for as long as the DB serves
// (and until Close, for queries pinned to old snapshots).
func (db *DB) LoadMappedIndexAt(r io.ReaderAt, size int64) error {
	start := time.Now()
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	snap, err := db.decodeIndex(secfile.NewReaderAt(r, size))
	if err != nil {
		return err
	}
	if !snap.HasSeqs {
		return fmt.Errorf("digitaltraces: loading mapped index: the file carries no sequence section — load it with LoadIndex over a re-ingested log")
	}
	// Registry reconciliation, read-only: a fresh registry will adopt the
	// table, which must then be dense and free of repeated names; a populated
	// one must already agree with it on every (name, ID) pair.
	db.mu.RLock()
	fresh := len(db.byID) == 0
	seen := make(map[string]bool, len(snap.Entities))
	for i, se := range snap.Entities {
		switch e, ok := db.names[se.Name]; {
		case fresh && int(se.ID) != i:
			err = fmt.Errorf("digitaltraces: mapped snapshot entity IDs are not dense (ID %d at table position %d) — it cannot seed a fresh registry; re-ingest the visit log before loading", se.ID, i)
		case fresh && seen[se.Name]:
			err = fmt.Errorf("digitaltraces: mapped snapshot repeats entity name %q", se.Name)
		case !fresh && !ok:
			err = fmt.Errorf("digitaltraces: mapped snapshot entity %q is not in the registry — mapped snapshots resolve by ID, so re-ingest the visit log in its original order (or load into a fresh DB)", se.Name)
		case !fresh && e != se.ID:
			err = fmt.Errorf("digitaltraces: mapped snapshot entity %q has ID %d in the file but %d here — mapped snapshots resolve by ID, so re-ingest the visit log in its original order", se.Name, se.ID, e)
		}
		if err != nil {
			break
		}
		seen[se.Name] = true
	}
	db.mu.RUnlock()
	if err != nil {
		return err
	}

	spans := make(map[trace.EntityID]storage.Span, len(snap.Entities))
	order := make([]trace.EntityID, len(snap.Entities))
	covered := make(map[trace.EntityID]uint32, len(snap.Entities))
	for i, se := range snap.Entities {
		spans[se.ID], order[i], covered[se.ID] = se.Seq, se.ID, se.Folded
	}
	pool, err := storage.OpenSpans(db.ix, r, size, spans, order, storage.Options{BlockSize: secfile.Page})
	if err != nil {
		return fmt.Errorf("digitaltraces: loading mapped index: %w", err)
	}
	store := trace.NewBackedStore(db.ix, pool)
	tree, err := snap.MappedTree(db.ix, store)
	if err != nil {
		return fmt.Errorf("digitaltraces: loading mapped index: %w", err)
	}
	ns, err := db.loadedSnapshot(store, tree, snap.Info.Horizon, start)
	if err != nil {
		return err
	}
	ns.pool = pool
	// Every check has passed; from here the load only writes, all of it one
	// atomic step against writers: adopt names and epoch on a fresh registry,
	// publish, recompute the dirty set, and flip the DB into union-fold mode.
	db.mu.Lock()
	defer db.mu.Unlock()
	if fresh {
		if len(db.byID) != 0 {
			return fmt.Errorf("digitaltraces: loading mapped index: %d entities were ingested while the load ran — a mapped index seeds an empty registry or matches a populated one; retry", len(db.byID))
		}
		for _, se := range snap.Entities {
			db.names[se.Name] = se.ID
			db.byID = append(db.byID, se.Name)
		}
		// A mapped boot has no visit to infer an epoch from, and the stored
		// sequences are discretized against exactly this one.
		if !db.epochSet {
			db.epoch = time.Unix(0, snap.Info.Meta.EpochNanos).UTC()
			db.epochSet = true
			db.epochExplicit = true
		}
	}
	ns.byID = db.byID[:len(db.byID):len(db.byID)]
	db.unionFold = true
	db.publishLoaded(ns, covered)
	return nil
}

// decodeIndex decodes and validates an index image through the reader a
// secfile constructor returned, and checks its scalars against this DB's
// configuration — before anything they size (the hash family) is built.
func (db *DB) decodeIndex(sr *secfile.Reader, err error) (*core.Snapshot, error) {
	var snap *core.Snapshot
	if err == nil {
		snap, err = core.DecodeSnapshot(sr, db.ix)
	}
	if err != nil {
		return nil, fmt.Errorf("digitaltraces: loading index: %w", err)
	}
	return snap, db.checkSnapshotInfo(snap.Info)
}

// loadedSnapshot wraps a loaded tree as a snapshot. The load is this
// lineage's full construction: its cost is reported where a cold lineage
// reports BuildIndex's.
func (db *DB) loadedSnapshot(store *trace.Store, tree *core.Tree, horizon trace.Time, start time.Time) (*snapshot, error) {
	measure, err := db.newMeasure()
	if err != nil {
		return nil, err
	}
	return &snapshot{store: store, tree: tree, measure: measure, horizon: horizon, buildTime: time.Since(start)}, nil
}

// publishLoaded swaps a loaded snapshot in and recomputes the dirty set over
// its registry, as one atomic step against writers (callers hold mu). covered
// gives, per entity the loaded tree serves whole, the visit count its
// signature covers. An entity is clean when it has no retained visits — it
// serves purely from the loaded sequences — or when its retained log is
// exactly what is covered; anything else — grown logs, covered prefixes,
// save-time dirt, registry entities the tree does not hold — is dirty and the
// next Refresh folds it in. Entities registered after ns.byID was captured
// were marked dirty by their own ingest and are untouched.
func (db *DB) publishLoaded(ns *snapshot, covered map[trace.EntityID]uint32) {
	db.swapIn(ns)
	for id := range ns.byID {
		e := trace.EntityID(id)
		n := len(db.visits[e])
		if c, ok := covered[e]; n == 0 || (ok && c != core.FoldedUnknown && int(c) == n) {
			delete(db.dirty, e)
		} else {
			db.dirty[e] = true
		}
	}
}

// checkSnapshotInfo verifies a loaded snapshot's recorded scalars against
// this DB's configuration. The hash family and the discretization + measure
// scalars all change what an answer means, so any mismatch is an error
// naming both sides rather than a silent semantic shift.
func (db *DB) checkSnapshotInfo(info core.SnapshotInfo) error {
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
