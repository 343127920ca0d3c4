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
}

// Ranked is a DB.Rank reply: the matches in exact rank order (degree
// descending, ties by ascending tie key — the entity ID on a single DB, the
// cluster-wide ordinal on a shard; AddKeyedVisits) and each match's key; the
// query entity's visits when the query named it; an admissible upper bound on
// the degree of every admitted entity left out; whether Want matches came
// back (the cap, not the floor or the population, may have ended the search);
// the exact degree computations it took; and the generation of the snapshot
// it answered over.
type Ranked struct {
	Matches    []Match
	Keys       []uint32
	Visits     []Visit
	Bound      float64
	Capped     bool
	Checked    int
	Generation uint64
}

// Rank answers one floored search over one pinned index snapshot: exactly the
// first Want entries of the exact order over the entities Keep admits at or
// above Floor. The query cache and the tracer are not consulted: this is a
// shard's half of a cluster query, which caches and traces on the coordinator.
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
	r, err := s.post.Rank(q, rq.Want, rq.Floor, keep, s.keys, db.measure)
	if err != nil {
		return out, err
	}
	out.Checked, out.Capped = r.Stats.Checked, r.Capped
	out.Matches, out.Keys = make([]Match, len(r.Results)), make([]uint32, len(r.Results))
	for i, res := range r.Results {
		out.Matches[i], out.Keys[i] = Match{Entity: s.byID[res.Entity], Degree: res.Degree}, s.keys[res.Entity]
	}
	out.Bound, out.Generation = r.Bound, s.generation
	return out, nil
}
