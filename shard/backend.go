package shard

// The Backend seam: everything a Cluster asks of one shard — ingest a batch,
// rank a query, report its state, and build, save or open its index —
// expressed as an interface so the shard can live in this process (a
// *digitaltraces.DB behind the local adapter) or in another one
// (shard/remote's Client speaking the shard protocol over HTTP). The
// Cluster's exactness argument is entirely in terms of this contract —
// per-shard exact rank order under a floor, a cap and an ownership mask,
// shared discretization parameters — so composing remote shards preserves
// bit-identical answers as long as each implementation honors it.
//
// The search half is one stateless call: Rank answers a shard's whole part of
// a query at once, so a cluster query costs one round trip per shard asked
// and no shard holds anything for the coordinator between calls.

import (
	"io"
	"time"

	"digitaltraces"
)

// Backend is one shard of a Cluster: an engine holding one entity partition.
// *digitaltraces.DB satisfies it through the local adapter (NewCluster's
// Config.NewShard path); shard/remote.Client satisfies it over the network
// (Config.Backends). All implementations must share the cluster's epoch,
// time unit and venue hierarchy — NewCluster verifies — so every member
// discretizes a visit to the same ST-cells.
type Backend interface {
	// AddVisits ingests, with the single-DB contract: once the shard has an
	// index the visits are indexed when the call returns, the count is
	// authoritative, the error names the failing record's index within the
	// slice, and an error with every record counted is a failed fold of
	// stored visits.
	AddVisits(visits []digitaltraces.VisitRecord) (int, error)
	// VisitsOf resolves an entity's visits with the exact round-tripping
	// discretization guarantee of digitaltraces.DB.VisitsOf.
	VisitsOf(entity string) ([]digitaltraces.Visit, error)
	// Rank answers one shard's part of a cluster query over one pinned
	// index snapshot (RankRequest; DB.Rank's contract) — one round trip on a
	// remote shard.
	Rank(req RankRequest) (digitaltraces.Ranked, error)
	// BuildIndex rebuilds the shard's index.
	BuildIndex() error
	// Shape and serving state. On a remote shard the mutable values —
	// NumEntities and SnapshotGeneration — answer from the
	// client's last-seen state (every protocol response carries the shard's
	// current state), so they cost no round trip on the query hot path; see
	// the single-coordinator caveat in shard/remote.
	NumEntities() int
	NumVenues() int
	Levels() int
	TimeUnit() time.Duration
	Epoch() (time.Time, bool)
	SnapshotGeneration() (uint64, bool)
	IndexStats() digitaltraces.IndexStats
	// SaveIndex writes the shard's index image (DB.SaveIndex) and OpenIndexAt
	// serves one, for the cluster envelope (persist.go). A local shard serves
	// the image in place off r; a remote one sends it to its shard server,
	// which opens it there — either way with DB.OpenIndexAt's checks.
	SaveIndex(w io.Writer) (int64, error)
	OpenIndexAt(r io.ReaderAt, size int64) error
	// Close releases the backend: a local shard unmaps its opened images, a
	// remote client closes its pooled connections.
	Close() error
}

// RankRequest is what a cluster query asks of one shard: rank the query —
// the named entity, whose visits the reply carries, or the example visits —
// against the entities the shard owns under the query's pinned slot map
// (Owned), and return the first Want of them at or above Floor in the shard's
// exact order. Ties makes a capped reply carry every further match tied with
// its last, for a shard whose local order a migration disturbed.
type RankRequest struct {
	Entity string
	Visits []digitaltraces.Visit
	Want   int
	Floor  float64
	Owned  SlotMask
	Ties   bool
}

// local adapts an in-process *digitaltraces.DB to the Backend contract. All
// methods but Rank are the DB's own.
type local struct {
	*digitaltraces.DB
}

// Rank is DB.Rank with the ownership mask as its filter.
func (l local) Rank(req RankRequest) (digitaltraces.Ranked, error) {
	return l.DB.Rank(digitaltraces.RankQuery{
		Entity: req.Entity,
		Visits: req.Visits,
		Want:   req.Want,
		Floor:  req.Floor,
		Keep:   func(e string) bool { return req.Owned.Has(SlotOf(e)) },
		Ties:   req.Ties,
	})
}
