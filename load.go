package digitaltraces

// Opening a saved index: one image, served in place. Only the scalars,
// names, entity table and cell index decode eagerly, and the level sizes are
// read where they lie; an entity's sequences are decoded the first time a
// query touches them, and kept, so time-to-first-query is the decode and
// resident memory follows the entities queried so far, not the index size.
// The open publishes through the same atomic.Pointer swap every builder uses,
// so queries racing it keep answering from whatever was published before.

import (
	"fmt"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/mmap"
	"digitaltraces/internal/secfile"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// OpenIndex maps the index file at path read-only (SaveIndex wrote it) and
// serves it in place (OpenImage). Where mmap is unavailable the file is read
// into the heap instead — same semantics, without the laziness. Close unmaps
// the file — stop queries first.
func (db *DB) OpenIndex(path string) error {
	m, err := mmap.Open(path)
	if err != nil {
		return fmt.Errorf("digitaltraces: mapping index %s: %w", path, err)
	}
	if err := db.OpenImage(m.Bytes()); err != nil {
		m.Close()
		return err
	}
	db.mu.Lock()
	db.mappings = append(db.mappings, m)
	db.mu.Unlock()
	return nil
}

// Close unmaps the index file mappings OpenIndex made. Close is idempotent
// and the error is always nil (the signature is io.Closer-shaped for
// composition). A heap-served DB stays usable after Close, but a mapped DB's
// snapshots must not be queried after Close unmaps their backing.
func (db *DB) Close() error {
	db.mu.Lock()
	maps := db.mappings
	db.mappings = nil
	db.mu.Unlock()
	for _, m := range maps {
		m.Close()
	}
	return nil
}

// OpenImage serves the index image b in place: a mapping, a section of a
// cluster envelope's mapping, or an image received whole over the network.
// Each entity's sequences are decoded from b once, on first touch, then
// served from the heap (IndexStats.Decoded counts them). The caller owns b,
// must never write it, and must keep it valid for as long as the DB serves
// (and until Close, for queries pinned to old snapshots).
//
// The image resolves entities by ID — the sequence blobs embed the save-time
// IDs — so there is no name-based remapping, and one rule reconciles it with
// the registry: an image entity the registry knows must have its ID there,
// and one it does not know must have the next ID past it. The image then
// extends the registry with those entities — all of them into an empty
// registry, the no-re-ingest boot; the ones written after the record file
// was, on a restart over it — and, when none is fixed yet, lends it its
// epoch. The stored scalars (time unit, epoch, measure) must match the DB's
// configuration. A refused open leaves the DB exactly as it found it: every
// check runs before the first field is written.
//
// No visit acknowledged before the open is lost, and none stays pending:
// each entity serves the union of what the image covers, what the DB had
// already folded, and its pending visits, all folded before the open
// publishes (exact — cell sets union idempotently). The image's covered
// counts only spare work: an entity the image adds to the registry takes its
// count, and a registered entity whose count the image matches — it covers
// every visit the entity has ingested — needs no fold at all.
func (db *DB) OpenImage(b []byte) error {
	start := time.Now()
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	sr, err := secfile.NewReader(b)
	var snap *core.Snapshot
	if err == nil {
		snap, err = core.DecodeSnapshot(sr, db.ix)
	}
	if err != nil {
		return fmt.Errorf("digitaltraces: opening index: %w", err)
	}
	if err := db.checkSnapshotMeta(snap.Meta); err != nil {
		return err
	}
	ents := snap.Entities // row e is entity e's
	spans := make([]storage.Span, len(ents))
	for e, se := range ents {
		spans[e] = se.Seq
	}
	// Registry reconciliation, read-only: an image entity the registry knows
	// must agree on its ID (it keeps its tie key), and one it does not know
	// must take the next ID past it (adopt, with the image's tie key). Of the
	// known ones, an entity whose every ingested visit the image covers — its
	// count matches — leaves nothing pending (drop); any other is folded into
	// the image's snapshot before it publishes: the union of the image, what
	// the DB serves for it (if it had folded some of its visits) and its
	// pending tail, captured in the view v, as is every registered entity
	// past the image, so the store stays 0..n−1. buildMu keeps the folded
	// counts stable: writers grow ingested and pending together.
	var (
		v     view
		drop  = map[trace.EntityID]int{}
		adopt []core.SnapshotEntity
	)
	db.mu.RLock()
	known := len(db.byID)
	seen := make(map[string]bool, len(ents))
	for id, se := range ents {
		switch e, ok := db.names[se.Name]; {
		case seen[se.Name]:
			err = fmt.Errorf("digitaltraces: index image repeats entity name %q", se.Name)
		case ok && int(e) != id:
			err = fmt.Errorf("digitaltraces: index image entity %q has ID %d in the file but %d here — images resolve by ID, so re-ingest the visit log in its original order", se.Name, id, e)
		case !ok && id != known+len(adopt):
			err = fmt.Errorf("digitaltraces: index image entity %q is not in the registry, and its ID %d is not dense past the registry's %d entities — images resolve by ID, so re-ingest the visit log in its original order", se.Name, id, known+len(adopt))
		case !ok:
			adopt = append(adopt, se)
		}
		if err != nil {
			break
		}
		seen[se.Name] = true
	}
	for id, n := range db.ingested {
		e := trace.EntityID(id)
		tail := db.pending[e]
		if id < len(ents) && ents[id].Folded == n {
			drop[e] = len(tail)
			continue
		}
		if n > 0 || id >= len(ents) {
			v.ids = append(v.ids, e)
			v.recs = append(v.recs, tail[:len(tail):len(tail)])
		}
	}
	v.seq = db.writeSeq
	db.mu.RUnlock()
	if err != nil {
		return err
	}

	seqs, err := storage.NewSpanReader(db.ix, b, spans)
	if err != nil {
		return fmt.Errorf("digitaltraces: opening index: %w", err)
	}
	store := trace.NewBackedStore(db.ix, seqs)
	ns := &snapshot{store: store, post: snap.MappedPostings(db.ix, store)}
	if len(v.ids) > 0 {
		store = db.fold(v.ids, v.recs, ns, db.snap.Load())
		if ns.post, err = ns.post.Derive(store, v.ids); err != nil {
			return fmt.Errorf("digitaltraces: opening index: %w", err)
		}
		ns.store = store
	}
	// The open is this lineage's full construction: its cost is reported
	// where a cold lineage reports BuildIndex's.
	ns.buildTime = time.Since(start)
	// Every check has passed; from here the open only writes, all of it one
	// atomic step against writers: register the adopted entities with their
	// counts, fix the epoch if none is, drop the covered and the folded
	// pending visits, and publish. Nothing acknowledged stays pending.
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(adopt) > 0 && len(db.byID) != known {
		return fmt.Errorf("digitaltraces: opening index: %d entities were registered while the open ran, taking the IDs the image's new entities need; retry", len(db.byID)-known)
	}
	for _, se := range adopt {
		db.ingested[db.register(se.Name, int64(se.Key))] = se.Folded
	}
	// An image boot has no visit to infer an epoch from, and the stored
	// sequences are discretized against exactly this one.
	if !db.epochSet {
		db.epoch = time.Unix(0, snap.Meta.EpochNanos).UTC()
		db.epochSet = true
		db.epochExplicit = true
	}
	// The covered visits are a prefix of the tail: writers only append.
	for e, n := range drop {
		if n > 0 {
			db.dropPending(e, n)
		}
	}
	ns.byID, ns.keys = db.byID[:len(db.byID):len(db.byID)], db.keys[:len(db.keys):len(db.keys)]
	db.publishLocked(ns, v)
	return nil
}

// checkSnapshotMeta verifies a loaded snapshot's recorded scalars against
// this DB's configuration. The discretization and measure scalars change
// what an answer means, so any mismatch is an error naming both sides rather
// than a silent semantic shift.
func (db *DB) checkSnapshotMeta(m core.SnapshotMeta) error {
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
