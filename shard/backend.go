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
// Stream.Pull(want) surrenders up to want ranked results and the bound after
// them in one call, so an entire gather round against a remote shard costs
// one network round trip, not want of them. The local adapter simply loops
// digitaltraces.Search.Next under the same contract.

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
	// entity described by visits, pinned to one immutable index snapshot.
	OpenSearch(visits []digitaltraces.Visit) (Stream, error)
	// OpenSearchEntity resolves the named entity's visits and opens a stream
	// over them in one call — one round trip on a remote shard — returning
	// the visits so the coordinator can fan the same snapshot out to sibling
	// shards (TopK must never mix two states of the query entity).
	OpenSearchEntity(entity string) ([]digitaltraces.Visit, Stream, error)
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

// Stream is one shard's half of an in-progress incremental top-k: results
// arrive in the shard's exact rank order (degree descending, ties by the
// shard's own ingest order), batched. A Stream pins one index snapshot for
// its whole life and is not safe for concurrent use; the coordinator drives
// each stream from a single goroutine per pull round.
type Stream interface {
	// Pull returns up to want further matches, an admissible upper bound on
	// the degree of everything not yet returned (0 once exhausted), and
	// whether more results may remain. Fewer than want matches with
	// more == true never happens: a short batch means the stream ran dry.
	Pull(want int) ([]digitaltraces.Match, float64, bool, error)
	// Checked reports the exact degree computations performed so far (for a
	// remote stream, as of the last pull — exact after the final pull, since
	// a cut stream does no further work).
	Checked() int
	// Generation identifies the pinned snapshot (the cluster cache's
	// version-vector component for this shard).
	Generation() uint64
	// Close releases the stream. A remote Close is fire-and-forget — the
	// shard server also expires idle streams — and a local Close is a no-op;
	// either way the Stream must not be used afterwards.
	Close() error
}

// local adapts an in-process *digitaltraces.DB to the Backend contract. All
// methods but the search-opening pair are the DB's own.
type local struct {
	*digitaltraces.DB
}

func (l local) OpenSearch(visits []digitaltraces.Visit) (Stream, error) {
	s, err := l.DB.SearchByExample(visits)
	if err != nil {
		return nil, err
	}
	return &localStream{s: s}, nil
}

func (l local) OpenSearchEntity(entity string) ([]digitaltraces.Visit, Stream, error) {
	visits, err := l.DB.VisitsOf(entity)
	if err != nil {
		return nil, nil, err
	}
	st, err := l.OpenSearch(visits)
	if err != nil {
		return nil, nil, err
	}
	return visits, st, nil
}

// localStream adapts digitaltraces.Search to the batched Stream contract by
// looping Next — in process, a "round trip" is a method call, so batching
// changes nothing but the shape.
type localStream struct {
	s *digitaltraces.Search
}

func (ls *localStream) Pull(want int) ([]digitaltraces.Match, float64, bool, error) {
	out := make([]digitaltraces.Match, 0, want)
	for len(out) < want {
		m, ok, err := ls.s.Next()
		if err != nil {
			return nil, 0, false, err
		}
		if !ok {
			return out, ls.s.Bound(), false, nil
		}
		out = append(out, m)
	}
	return out, ls.s.Bound(), true, nil
}

func (ls *localStream) Checked() int       { return ls.s.Checked() }
func (ls *localStream) Generation() uint64 { return ls.s.Generation() }
func (ls *localStream) Close() error       { return nil }

// closeStreams releases every non-nil stream (remote streams notify their
// shard server; local ones are no-ops).
func closeStreams(streams []Stream) {
	for _, s := range streams {
		if s != nil {
			s.Close()
		}
	}
}
