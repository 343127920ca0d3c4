package shard

// The Backend seam: everything a Cluster asks of one shard — ingest a batch,
// stream a search, report its state, and build, save or open its index —
// expressed as an interface so the shard can live in this process (a
// *digitaltraces.DB behind the local adapter) or in another one
// (shard/remote's Client speaking the pull-based search protocol over HTTP).
// The Cluster's exactness argument is entirely in terms of this contract —
// per-shard exact rank order, admissible bounds, shared discretization
// parameters — so composing remote shards preserves bit-identical answers as
// long as each implementation honors it.
//
// The search half is deliberately *pull-batched* rather than item-at-a-time:
// Stream.Pull(want, floor) surrenders up to want ranked results at or above
// the coordinator's floor and the bound after them in one call, and opening a
// stream already carries its first pull, so an entire gather round against a
// remote shard costs one network round trip, not want of them. A local
// shard's stream is the DB's own *digitaltraces.Search.

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
	// OpenSearch opens an incremental exact-rank stream for a hypothetical
	// entity described by visits, pinned to one immutable index snapshot, and
	// returns its first Pull(want, floor) with it — one round trip on a
	// remote shard.
	OpenSearch(visits []digitaltraces.Visit, want int, floor float64) (Stream, digitaltraces.Batch, error)
	// OpenSearchEntity resolves the named entity's visits and opens a stream
	// over them, first Pull(want, 0) included, in one call — one round trip
	// on a remote shard — returning the visits so the coordinator can fan the
	// same snapshot out to sibling shards (TopK must never mix two states of
	// the query entity).
	OpenSearchEntity(entity string, want int) ([]digitaltraces.Visit, Stream, digitaltraces.Batch, error)
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

// Stream is one shard's half of an in-progress incremental top-k: results
// arrive in the shard's exact rank order (degree descending, ties by the
// shard's own ingest order), batched as digitaltraces.Batch. A local shard's
// stream is its *digitaltraces.Search; a remote one's is the client half of
// a server-side Search. A Stream pins one index snapshot until it is closed
// and is not safe for concurrent use; the coordinator drives each stream
// from a single goroutine per pull round.
type Stream interface {
	// Pull returns the next batch of up to want matches. floor is the
	// coordinator's current k-th degree (0 while it holds fewer than k): the
	// shard scores nothing bounded below it, returns no match below it and
	// ends the stream (Live false) once its bound drops below it. Matches at
	// the floor are still returned — they can win the ordinal tie-break — so
	// a pulled prefix stays a prefix of the shard's exact order. Successive
	// floors never decrease.
	Pull(want int, floor float64) (digitaltraces.Batch, error)
	// Checked reports the exact degree computations performed so far (for a
	// remote stream, as of the last pull — exact after the final pull, since
	// a cut stream does no further work).
	Checked() int
	// Generation identifies the pinned snapshot (the cluster cache's
	// version-vector component for this shard).
	Generation() uint64
	// Close releases the stream's search, snapshot and pooled scratch: at
	// once for a local stream, on the client's next request to that shard
	// for a remote one (no round trip of its own; the server's TTL is the
	// backstop). The Stream must not be pulled afterwards.
	Close() error
}

// local adapts an in-process *digitaltraces.DB to the Backend contract. All
// methods but the search-opening pair are the DB's own.
type local struct {
	*digitaltraces.DB
}

var _ Stream = (*digitaltraces.Search)(nil)

func (l local) OpenSearch(visits []digitaltraces.Visit, want int, floor float64) (Stream, digitaltraces.Batch, error) {
	s, err := l.DB.SearchByExample(visits)
	if err != nil {
		return nil, digitaltraces.Batch{}, err
	}
	b, err := s.Pull(want, floor)
	if err != nil {
		s.Close()
		return nil, digitaltraces.Batch{}, err
	}
	return s, b, nil
}

func (l local) OpenSearchEntity(entity string, want int) ([]digitaltraces.Visit, Stream, digitaltraces.Batch, error) {
	visits, err := l.DB.VisitsOf(entity)
	if err != nil {
		return nil, nil, digitaltraces.Batch{}, err
	}
	st, b, err := l.OpenSearch(visits, want, 0)
	if err != nil {
		return nil, nil, digitaltraces.Batch{}, err
	}
	return visits, st, b, nil
}
