package digitaltraces

import (
	"fmt"
	"io"
	"time"

	"digitaltraces/internal/obs"
	"digitaltraces/internal/trace"
)

// Engine is the query-serving contract shared by a single *DB and any
// composition of DBs (package shard's entity-partitioned Cluster). It covers
// everything the HTTP layer (package server) and batch tooling need: the
// three query modes, bulk ingest, index maintenance, and shape statistics.
//
// Every Engine implementation in this repository answers queries exactly:
// composing DBs must preserve the single-DB answer bit-for-bit (entities,
// degrees and order), so callers can swap implementations by scale without
// revalidating results.
type Engine interface {
	// TopK returns the k entities most closely associated with the named
	// entity, with exact degrees, plus query statistics.
	TopK(entity string, k int) ([]Match, QueryStats, error)
	// TopKByExample answers for a hypothetical entity described by visits.
	TopKByExample(visits []Visit, k int) ([]Match, QueryStats, error)
	// TopKBatch answers top-k for every named entity over a worker pool.
	TopKBatch(entities []string, k, workers int) (map[string][]Match, QueryStats, error)
	// AddVisits bulk-ingests visit records, returning how many were stored.
	// On error the count is authoritative and the error names the failing
	// record's index; which records around the failure were kept is
	// implementation-defined (a single DB keeps the prefix before the
	// failing record, a partitioned engine keeps each partition's prefix —
	// records after the failing index routed to other partitions may be
	// stored). Callers must not blindly re-send the suffix after a failure.
	AddVisits(visits []VisitRecord) (int, error)
	// BuildIndex (re)builds the index over all current visits.
	BuildIndex() error
	// Refresh folds visits added since the last build into the index.
	Refresh() error
	// SaveIndex persists the serving index to w as one image — entity table,
	// names, engine scalars, level sizes, the level-1 cell index and every
	// entity's sequences, page-aligned — folding pending dirt first so the
	// image covers everything ingested so far.
	SaveIndex(w io.Writer) (int64, error)
	// OpenIndex maps the image at path read-only and serves queries straight
	// off it, with no visit re-ingest and no rebuild: restart cost is the
	// decode plus lazy page faults, and resident memory follows the hot
	// entities. Into an empty engine the image brings its names; into a
	// populated one every stored (name, ID) pair must agree, or the open is
	// an error, never a silently different answer.
	OpenIndex(path string) error
	// NumEntities, NumVenues and Levels describe the data shape.
	NumEntities() int
	NumVenues() int
	Levels() int
	// IndexStats describes the built index (aggregated, for compositions).
	IndexStats() IndexStats
	// Tracer exposes the engine's query-trace ring — nil when tracing is
	// disabled (the default). All obs.Tracer methods are nil-receiver safe,
	// so callers use the result without checking.
	Tracer() *obs.Tracer
}

var _ Engine = (*DB)(nil)

// Epoch returns the start of the observation horizon and whether it has been
// fixed yet — either by WithEpoch or by the first ingested visit. Engines
// that partition entities across several DBs need every member to share one
// epoch, or the same wall-clock visit would discretize to different base
// units on different members.
func (db *DB) Epoch() (time.Time, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch, db.epochSet
}

// TimeUnit returns the base temporal unit visits are discretized into.
func (db *DB) TimeUnit() time.Duration { return db.unit }

// VisitsOf returns the visits of an entity, with venue names and absolute
// times reconstructed from the DB's epoch and time unit. The reconstruction
// round-trips exactly: feeding the result to TopKByExample (or re-ingesting
// it under the same epoch and unit) reproduces the entity's stored ST-cells
// bit-for-bit. Package shard uses this to resolve a query entity on its home
// shard before fanning the query out by example.
//
// On a DB serving without a retained visit log (a mapped or bulk load), the
// recorded history is gone, so VisitsOf instead coalesces the entity's
// stored base ST-cells back into presence periods and appends any visits
// ingested since the load. That loses the original record boundaries but
// nothing the index ever saw — the result discretizes to the identical cell
// set, so every degree computed from it is unchanged.
func (db *DB) VisitsOf(entity string) ([]Visit, error) {
	snap := db.snap.Load()
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.names[entity]
	if !ok {
		return nil, fmt.Errorf("digitaltraces: unknown entity %q", entity)
	}
	return db.visitsLocked(snap, e), nil
}

// AllVisits exports every recorded visit, grouped by entity in first-ingest
// order (the order entity IDs were assigned), with absolute times
// reconstructed like VisitsOf. Replaying the result into an empty engine in
// slice order reproduces both the visit data and the entity insertion order
// — which fixes degree-tie-breaking — so it is the bulk re-partitioning path
// (shard.Partition) as well as a full logical dump.
func (db *DB) AllVisits() []VisitRecord {
	snap := db.snap.Load()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []VisitRecord
	for id, name := range db.byID {
		for _, v := range db.visitsLocked(snap, trace.EntityID(id)) {
			out = append(out, VisitRecord{Entity: name, Venue: v.Venue, Start: v.Start, End: v.End})
		}
	}
	return out
}

// visitsLocked returns e's visits given snap, the serving snapshot read
// before mu was taken. With the full history retained that is the log. On a
// DB serving without one (union-fold) it is the presence periods of e's
// stored sequences followed by everything ingested since the load; reading
// the snapshot first keeps the union complete even against a concurrent fold
// (folds never remove retained post-load visits). Callers hold mu.
func (db *DB) visitsLocked(snap *snapshot, e trace.EntityID) []Visit {
	out := make([]Visit, 0, len(db.visits[e]))
	if db.unionFold && snap != nil {
		if seq := snap.store.Get(e); seq != nil {
			for _, p := range seq.PresenceInstances(db.ix.Height()) {
				out = append(out, Visit{
					Venue: db.baseNames[db.ix.BaseOf(p.Unit)],
					Start: db.epoch.Add(time.Duration(p.Start) * db.unit),
					End:   db.epoch.Add(time.Duration(p.End) * db.unit),
				})
			}
		}
	}
	for _, r := range db.visits[e] {
		out = append(out, db.visitFromRecordLocked(r))
	}
	return out
}

// visitFromRecordLocked converts a stored record back to wall-clock form;
// callers must hold mu (read or write).
func (db *DB) visitFromRecordLocked(r trace.Record) Visit {
	return Visit{
		Venue: db.baseNames[r.Base],
		Start: db.epoch.Add(time.Duration(r.Start) * db.unit),
		End:   db.epoch.Add(time.Duration(r.End) * db.unit),
	}
}
