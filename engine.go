package digitaltraces

import (
	"fmt"
	"io"
	"time"

	"digitaltraces/internal/obs"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Engine is the query-serving contract shared by a single *DB and any
// composition of DBs (package shard's entity-partitioned Cluster). It covers
// everything the HTTP layer (package server) and batch tooling need: the
// three query modes, bulk ingest, index builds and persistence, and shape
// statistics.
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
	// TopKBatch answers top-k for every named entity over a worker pool
	// (workers ≤ 0 selects GOMAXPROCS). Each item is identical to TopK for
	// its entity, cache included; under concurrent writes two items may
	// answer at different generations, each exactly.
	TopKBatch(entities []string, k, workers int) (map[string][]Match, QueryStats, error)
	// AddVisits bulk-ingests visit records, returning how many were stored.
	// Once the engine has an index, the stored visits are indexed when the
	// call returns: every query issued afterwards sees them. On error the
	// count is authoritative and the error names the failing record's index;
	// which records around the failure were kept is implementation-defined
	// (a single DB keeps the prefix before the failing record, a partitioned
	// engine keeps each partition's prefix — records after the failing index
	// routed to other partitions may be stored). Callers must not blindly
	// re-send the suffix after a failure. An error with every record counted
	// is a failed fold: the visits are stored, and a later write or
	// BuildIndex folds them.
	AddVisits(visits []VisitRecord) (int, error)
	// BuildIndex (re)builds the index over all current visits.
	BuildIndex() error
	// SaveIndex persists the serving index to w as one image — entity table,
	// names, engine scalars, level sizes, the level-1 cell index and every
	// entity's sequences, page-aligned — covering every write acknowledged
	// so far.
	SaveIndex(w io.Writer) (int64, error)
	// OpenIndex maps the image at path read-only and serves queries straight
	// off it, with no visit re-ingest and no rebuild: restart cost is the
	// decode, each entity's sequences are decoded once when a query first
	// touches them, and resident memory follows the entities queried so
	// far. Every (name, ID) pair the engine already stores must agree, or
	// the open is an error, never a silently different answer; the image
	// brings the names past them (all of them, into an empty engine).
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
// times reconstructed from the DB's epoch and time unit: the coalesced
// presence periods of its folded ST-cells, then the visits still pending a
// fold as ingested. The reconstruction round-trips exactly: feeding the
// result to TopKByExample (or re-ingesting it under the same epoch and unit)
// reproduces the entity's ST-cells bit-for-bit. Folded visits come back as
// presence periods, not as the records that were ingested — adjacent records
// at one venue merge — which loses nothing the index ever saw, so every
// degree computed from the result is unchanged. Package shard uses this to
// resolve a query entity on its home shard before fanning the query out by
// example.
func (db *DB) VisitsOf(entity string) ([]Visit, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.names[entity]
	if !ok {
		return nil, fmt.Errorf("digitaltraces: unknown entity %q", entity)
	}
	return db.visitsLocked(db.snap.Load(), e), nil
}

// AllVisits exports every entity's visits as VisitsOf returns them, grouped
// by entity in first-ingest order (the order entity IDs were assigned).
// Replaying the result into an empty engine in slice order reproduces both
// the ST-cells and the entity insertion order — which fixes
// degree-tie-breaking — so it is the bulk re-partitioning path
// (shard.Partition) as well as a full logical dump.
func (db *DB) AllVisits() []VisitRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := db.snap.Load()
	var out []VisitRecord
	for id, name := range db.byID {
		for _, v := range db.visitsLocked(snap, trace.EntityID(id)) {
			out = append(out, VisitRecord{Entity: name, Venue: v.Venue, Start: v.Start, End: v.End})
		}
	}
	return out
}

// visitsLocked returns e's visits: the presence periods of the sequences snap
// serves for it, then its pending tail. Callers hold mu and load snap under
// that same hold: publish swaps the snapshot and drops the records it folded
// under mu, so the two halves always meet exactly — nothing is read twice or
// missed.
func (db *DB) visitsLocked(snap *snapshot, e trace.EntityID) []Visit {
	var folded []trace.PresenceInstance
	if snap != nil {
		if seq := snap.store.Get(e); seq != nil {
			folded = seq.PresenceInstances(db.ix.Height())
		}
	}
	pending := db.pending[e]
	out := make([]Visit, 0, len(folded)+len(pending))
	for _, p := range folded {
		out = append(out, db.visitLocked(db.ix.BaseOf(p.Unit), p.Start, p.End))
	}
	for _, r := range pending {
		out = append(out, db.visitLocked(r.Base, r.Start, r.End))
	}
	return out
}

// visitLocked converts a presence at base b over [start, end) units back to
// wall-clock form; callers must hold mu (read or write).
func (db *DB) visitLocked(b spindex.BaseID, start, end trace.Time) Visit {
	return Visit{
		Venue: db.baseNames[b],
		Start: db.epoch.Add(time.Duration(start) * db.unit),
		End:   db.epoch.Add(time.Duration(end) * db.unit),
	}
}
