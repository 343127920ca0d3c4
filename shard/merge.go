package shard

import (
	"math"

	"digitaltraces"
)

// entry is one per-shard candidate inside the merge: the match plus its
// global first-arrival ordinal (resolved from the cluster registry once,
// outside the selection loop).
type entry struct {
	m    digitaltraces.Match
	rank int
}

// rankLocked resolves an entity's global first-arrival ordinal; callers hold
// c.mu. Unknown names (defensive: every answer was ingested through the
// router) sort last.
func (c *Cluster) rankLocked(entity string) int {
	if o, ok := c.ord[entity]; ok {
		return o
	}
	return math.MaxInt
}

// mergeEntries is the pure k-way selection the bounded gather runs on:
// per-shard candidate lists, each already in its shard's exact order, folded
// into the global top-k by repeatedly taking the best list head under
// (degree descending, global ingest ordinal ascending, name ascending),
// skipping the excluded entity (the query-by-example fan-out has no notion of
// "self", so TopK excludes the query entity here). It returns the merged
// matches and how many entries were excluded. Entries within one shard's
// list are never reordered.
//
// That last property carries the losslessness proof. The load-bearing degree
// ties are between entities of the *same* shard — they competed for that
// shard's local cut, and an entity the shard cut is dominated by ≥ k
// entities from that shard alone, in the shard's own exact order. Because
// the merge consumes each list strictly in order, the merged output's
// same-shard relative order always equals the shard's order, whatever that
// order is — so the cut argument holds unconditionally, without assuming the
// cluster-wide registry agrees with shard-internal ID assignment (under
// racing ingest of new entities it may not). Cross-shard ties compare by the
// global first-arrival ordinal, where any fixed choice is lossless since
// entities on different shards never compete for the same local cut.
//
// Under sequential ingest, shard-local ID order is exactly the global
// arrival order restricted to the shard, so each list is sorted by (degree,
// global ordinal) and the k-way merge reproduces the single DB's full
// ranking bit-for-bit — the TestClusterExactness invariant. Under racing
// ingest the answer remains the exact top-k by degree; only the order among
// racing tied entities depends on arrival interleaving.
//
// Pure over its inputs (no cluster state), which is what makes the
// merge/termination logic fuzzable in isolation (FuzzBoundedGather).
func mergeEntries(lists [][]entry, k int, exclude string) ([]digitaltraces.Match, int) {
	pos := make([]int, len(lists))
	out := make([]digitaltraces.Match, 0, k)
	excluded := 0
	for len(out) < k {
		best := -1
		for i := range lists {
			for exclude != "" && pos[i] < len(lists[i]) && lists[i][pos[i]].m.Entity == exclude {
				pos[i]++
				excluded++
			}
			if pos[i] >= len(lists[i]) {
				continue
			}
			if best == -1 || entryBefore(lists[i][pos[i]], lists[best][pos[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, lists[best][pos[best]].m)
		pos[best]++
	}
	return out, excluded
}

// entryBefore reports whether head a outranks head b: degree descending,
// global ordinal ascending, name ascending.
func entryBefore(a, b entry) bool {
	if a.m.Degree != b.m.Degree {
		return a.m.Degree > b.m.Degree
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.m.Entity < b.m.Entity
}
