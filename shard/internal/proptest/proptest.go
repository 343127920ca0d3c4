// Package proptest holds the shared random-visit-log generator behind the
// scatter-gather exactness property suites. It lives outside the shard
// package's own test files so that shard/remote can run the identical
// adversarial workload against a cluster of loopback remote shards — the
// acceptance bar for the network transport is the same bit-identical
// equivalence the in-process cluster proves.
package proptest

import (
	"fmt"
	"math/rand"

	"digitaltraces"
)

// Grid parameters every suite DB shares: 16 venues, 3 hierarchy levels —
// small enough that trials are fast, collision-rich enough that tie-breaking
// and bound slack are genuinely exercised.
const (
	Side   = 4
	Levels = 3
)

// NewDB builds a suite-compatible grid DB.
func NewDB() (*digitaltraces.DB, error) {
	return digitaltraces.NewGridDB(Side, Levels)
}

// RandomLog generates a visit log with adversarial degree structure:
//   - base entities visit random venues at random hours inside the trial's
//     horizon;
//   - a slice of clone entities replays another entity's exact visits, so
//     every query degree ties between the original and its clones and only
//     the ingest-order tie-break separates them;
//   - a slice of strangers visits inside a disjoint time window, producing
//     degree-0 ties against most queries (the k-th boundary a non-canonical
//     termination would resolve by tree shape instead of the contract).
func RandomLog(rng *rand.Rand, entities, horizonHours int) []digitaltraces.VisitRecord {
	numVenues := Side * Side
	visitsOf := make([][]digitaltraces.VisitRecord, entities)
	kind := make([]int, entities) // 0 base, 1 clone, 2 stranger
	for e := 1; e < entities; e++ {
		switch r := rng.Float64(); {
		case r < 0.25:
			kind[e] = 1
		case r < 0.40:
			kind[e] = 2
		}
	}
	for e := 0; e < entities; e++ {
		name := fmt.Sprintf("e%03d", e)
		if kind[e] == 1 {
			// Clone an earlier entity's visits verbatim under a new name.
			src := rng.Intn(e)
			for _, v := range visitsOf[src] {
				visitsOf[e] = append(visitsOf[e], digitaltraces.VisitRecord{
					Entity: name, Venue: v.Venue, Start: v.Start, End: v.End,
				})
			}
			if len(visitsOf[e]) > 0 {
				continue
			}
			// Source had none (can't happen — everyone gets ≥ 1 below), but
			// fall through to a normal trace rather than an empty entity.
		}
		lo, span := 0, horizonHours
		if kind[e] == 2 {
			// Strangers live in the back half of the horizon only.
			lo, span = horizonHours, horizonHours/2+1
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			h := lo + rng.Intn(span)
			visitsOf[e] = append(visitsOf[e], digitaltraces.VisitRecord{
				Entity: name,
				Venue:  digitaltraces.VenueName(rng.Intn(numVenues)),
				Start:  digitaltraces.TimeAt(h),
				End:    digitaltraces.TimeAt(h + 1 + rng.Intn(3)),
			})
		}
	}
	var log []digitaltraces.VisitRecord
	for _, vs := range visitsOf {
		log = append(log, vs...)
	}
	return log
}

// Dirt generates fresh in-horizon visits for a random ~30% of the named
// entities — the post-build incremental-fold workload every suite replays
// identically into each compared engine.
func Dirt(rng *rand.Rand, entities, horizonHours int) []digitaltraces.VisitRecord {
	var dirt []digitaltraces.VisitRecord
	for e := 0; e < entities; e++ {
		if rng.Float64() > 0.3 {
			continue
		}
		h := rng.Intn(horizonHours)
		dirt = append(dirt, digitaltraces.VisitRecord{
			Entity: fmt.Sprintf("e%03d", e),
			Venue:  digitaltraces.VenueName(rng.Intn(Side * Side)),
			Start:  digitaltraces.TimeAt(h),
			End:    digitaltraces.TimeAt(h + 1),
		})
	}
	return dirt
}

// SampleQueries picks a deterministic query set: entity 0 (often heavily
// cloned) plus a random spread.
func SampleQueries(rng *rand.Rand, entities int) []string {
	queried := map[string]bool{"e000": true}
	for len(queried) < 5 {
		queried[fmt.Sprintf("e%03d", rng.Intn(entities))] = true
	}
	var out []string
	for q := range queried {
		out = append(out, q)
	}
	return out
}
