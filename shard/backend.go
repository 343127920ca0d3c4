package shard

// The Backend seam: everything a Cluster asks of one shard, expressed as an
// interface so the shard can live in this process (a *digitaltraces.DB behind
// the local adapter) or in another one (shard/remote's Client speaking the
// pull-based search protocol over HTTP). The Cluster's exactness argument is
// entirely in terms of this contract — per-shard exact rank order, admissible
// bounds, shared discretization parameters — so composing remote shards
// preserves bit-identical answers as long as each implementation honors it.
//
// The search half is deliberately *pull-batched* rather than item-at-a-time:
// Stream.Pull(want, floor) surrenders up to want ranked results at or above
// the coordinator's floor and the bound after them in one call, and opening a
// stream already carries its first pull, so an entire gather round against a
// remote shard costs one network round trip, not want of them. The local
// adapter simply loops digitaltraces.Search.Next under the same contract.

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
	// AddVisit and AddVisits ingest, with the single-DB partial-failure
	// contract: the count is authoritative, the error names the failing
	// record's index within the slice.
	AddVisit(entity, venue string, start, end time.Time) error
	AddVisits(visits []digitaltraces.VisitRecord) (int, error)
	// VisitsOf resolves an entity's visits with the exact round-tripping
	// discretization guarantee of digitaltraces.DB.VisitsOf.
	VisitsOf(entity string) ([]digitaltraces.Visit, error)
	// OpenSearch opens an incremental exact-rank stream for a hypothetical
	// entity described by visits, pinned to one immutable index snapshot, and
	// returns its first Pull(want, floor) with it — one round trip on a
	// remote shard.
	OpenSearch(visits []digitaltraces.Visit, want int, floor float64) (Stream, Batch, error)
	// OpenSearchEntity resolves the named entity's visits and opens a stream
	// over them, first Pull(want, 0) included, in one call — one round trip
	// on a remote shard — returning the visits so the coordinator can fan the
	// same snapshot out to sibling shards (TopK must never mix two states of
	// the query entity).
	OpenSearchEntity(entity string, want int) ([]digitaltraces.Visit, Stream, Batch, error)
	// BuildIndex rebuilds the shard's index; Refresh folds pending dirt,
	// escalating to a local rebuild itself when the dirt extends past the
	// indexed horizon (a remote shard cannot surface ErrBeyondHorizon
	// usefully across the wire, so escalation is the implementation's job;
	// the local adapter leaves it to Cluster.Refresh, which handles it).
	BuildIndex() error
	Refresh() error
	// Shape and serving state. On a remote shard the mutable values —
	// NumEntities, SnapshotGeneration, PendingEntities — answer from the
	// client's last-seen state (every protocol response carries the shard's
	// current state), so they cost no round trip on the query hot path; see
	// the single-coordinator caveat in shard/remote.
	NumEntities() int
	NumVenues() int
	Levels() int
	TimeUnit() time.Duration
	Epoch() (time.Time, bool)
	SnapshotGeneration() (uint64, bool)
	PendingEntities() int
	IndexStats() digitaltraces.IndexStats
	// SaveIndex / LoadIndex move the shard's index image bytes, for
	// the cluster envelope (persist.go). A remote backend streams them over
	// the wire; the shard server folds/loads on its side. LoadIndexLenient
	// skips section entities absent from the shard's current log instead of
	// erroring — the slot-routed envelope load, where a saved section may
	// describe entities the slot map now routes elsewhere.
	SaveIndex(w io.Writer) (int64, error)
	LoadIndex(r io.Reader) error
	LoadIndexLenient(r io.Reader) error
	// Close releases the backend: a local shard stops its auto-refresh
	// goroutine, a remote client closes its pooled connections.
	Close() error
}

// Batch is what one pull surrenders: matches in the shard's exact order, all
// at or above the pull's floor; an admissible upper bound on the degree of
// everything not yet returned (0 once exhausted); and whether anything at or
// above the floor may remain. Fewer than want matches with Live set never
// happens: a short batch means the stream ran dry or reached the floor.
type Batch struct {
	Matches []digitaltraces.Match
	Bound   float64
	Live    bool
}

// Stream is one shard's half of an in-progress incremental top-k: results
// arrive in the shard's exact rank order (degree descending, ties by the
// shard's own ingest order), batched. A Stream pins one index snapshot until
// it is closed and is not safe for concurrent use; the coordinator drives
// each stream from a single goroutine per pull round.
type Stream interface {
	// Pull returns the next batch of up to want matches. floor is the
	// coordinator's current k-th degree (0 while it holds fewer than k): the
	// shard scores nothing bounded below it, returns no match below it and
	// ends the stream (Live false) once its bound drops below it. Matches at
	// the floor are still returned — they can win the ordinal tie-break — so
	// a pulled prefix stays a prefix of the shard's exact order. Successive
	// floors never decrease.
	Pull(want int, floor float64) (Batch, error)
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

func (l local) OpenSearch(visits []digitaltraces.Visit, want int, floor float64) (Stream, Batch, error) {
	s, err := l.DB.SearchByExample(visits)
	if err != nil {
		return nil, Batch{}, err
	}
	ls := &localStream{s: s}
	b, err := ls.Pull(want, floor)
	if err != nil {
		ls.Close()
		return nil, Batch{}, err
	}
	return ls, b, nil
}

func (l local) OpenSearchEntity(entity string, want int) ([]digitaltraces.Visit, Stream, Batch, error) {
	visits, err := l.DB.VisitsOf(entity)
	if err != nil {
		return nil, nil, Batch{}, err
	}
	st, b, err := l.OpenSearch(visits, want, 0)
	if err != nil {
		return nil, nil, Batch{}, err
	}
	return visits, st, b, nil
}

// localStream adapts digitaltraces.Search to the batched Stream contract by
// looping Next — in process, a "round trip" is a method call, so batching
// changes nothing but the shape.
type localStream struct {
	s *digitaltraces.Search
}

func (ls *localStream) Pull(want int, floor float64) (Batch, error) {
	ls.s.RaiseFloor(floor)
	out := make([]digitaltraces.Match, 0, min(want, 64)) // want may come off the wire: grow, don't trust it
	for len(out) < want {
		m, ok, err := ls.s.Next()
		if err != nil {
			return Batch{}, err
		}
		if !ok {
			return Batch{Matches: out, Bound: ls.s.Bound()}, nil
		}
		out = append(out, m)
	}
	b := ls.s.Bound()
	return Batch{Matches: out, Bound: b, Live: b >= floor}, nil
}

func (ls *localStream) Checked() int       { return ls.s.Checked() }
func (ls *localStream) Generation() uint64 { return ls.s.Generation() }
func (ls *localStream) Close() error {
	ls.s.Close()
	return nil
}
