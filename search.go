package digitaltraces

// The floored search — one shard's part of a cluster query (package shard).
// A cluster asks each shard once: rank my query against your entities, return
// the first few at or above a floor, and say how far you got. The reply is
// complete by construction, so the coordinator never comes back for more and
// no shard keeps any state between calls.

import (
	"fmt"

	"digitaltraces/internal/trace"
)

// RankQuery is one floored search (DB.Rank).
type RankQuery struct {
	// Entity, when set, names the query entity: its visits are resolved here,
	// returned in Ranked.Visits and ranked against as an example, and the
	// entity itself is no candidate. Otherwise Visits is the example.
	Entity string
	Visits []Visit
	// Want caps the matches (≥ 1), Floor is the least degree returned, and
	// Keep, when not nil, admits the candidates that may be returned and
	// counted: it is asked last, of a candidate the bucket and size bounds
	// leave in, just before it is scored.
	Want  int
	Floor float64
	Keep  func(entity string) bool
	// Ties asks a capped reply to carry every further match tied with its
	// last one, so that what the reply leaves out ranks strictly below Want
	// of its matches under any tie order.
	Ties bool
}

// Ranked is a DB.Rank reply: the matches in exact rank order (degree
// descending, ties by ascending entity ID); the query entity's visits when
// the query named it; an admissible upper bound on the degree of every
// admitted entity left out; whether Want matches came back (the cap, not the
// floor or the population, may have ended the search); the exact degree
// computations it took; and the generation of the snapshot it answered over.
type Ranked struct {
	Matches    []Match
	Visits     []Visit
	Bound      float64
	Capped     bool
	Checked    int
	Generation uint64
}

// Rank answers one floored search over one pinned index snapshot: exactly the
// first Want entries of the exact order over the entities Keep admits at or
// above Floor, plus, under Ties, every entry tied with the last of a capped
// reply — a second search over the same snapshot at that degree. The query
// cache and the tracer are not consulted: this is a shard's half of a
// cluster query, which caches and traces on the coordinator.
func (db *DB) Rank(rq RankQuery) (Ranked, error) {
	var out Ranked
	if rq.Want < 1 {
		return out, fmt.Errorf("digitaltraces: want = %d < 1", rq.Want)
	}
	self, visits := trace.EntityID(-1), rq.Visits
	if rq.Entity != "" {
		var err error
		if self, visits, err = db.visitsOf(rq.Entity); err != nil {
			return out, err
		}
		out.Visits = visits
	}
	s, err := db.snapshotForQuery()
	if err != nil {
		return out, err
	}
	q, err := db.exampleSequences(visits)
	if err != nil {
		return out, err
	}
	q.Entity = self // the named entity is no candidate of its own query
	var keep func(trace.EntityID) bool
	if rq.Keep != nil {
		keep = func(e trace.EntityID) bool { return rq.Keep(s.byID[e]) }
	}
	r, err := s.post.Rank(q, rq.Want, rq.Floor, keep, s.measure)
	if err != nil {
		return out, err
	}
	out.Checked, out.Capped = r.Stats.Checked, r.Capped
	if rq.Ties && r.Capped {
		if r, err = s.post.Rank(q, s.post.Len(), r.Results[len(r.Results)-1].Degree, keep, s.measure); err != nil {
			return out, err
		}
		out.Checked += r.Stats.Checked
	}
	out.Matches = make([]Match, len(r.Results))
	for i, res := range r.Results {
		out.Matches[i] = Match{Entity: s.byID[res.Entity], Degree: res.Degree}
	}
	out.Bound, out.Generation = r.Bound, s.generation
	return out, nil
}
