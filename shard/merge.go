package shard

import (
	"cmp"
	"slices"
	"strings"

	"digitaltraces"
)

// entry is one per-shard candidate inside the merge: the match plus its
// global first-arrival ordinal, the tie key its shard ranked it by.
type entry struct {
	m    digitaltraces.Match
	rank uint32
}

// merge is the coordinator's whole merge: every reply's entries but the
// excluded entity's, in the global order, cut at k. Pure over its inputs (no
// cluster state), which is what makes it fuzzable against a model of the
// shards (FuzzBoundedGather); es is sorted in place.
func merge(es []entry, k int, exclude string) []digitaltraces.Match {
	slices.SortFunc(es, compareEntries)
	out := make([]digitaltraces.Match, 0, min(k, len(es)))
	for _, e := range es {
		if len(out) == k {
			break
		}
		if exclude == "" || e.m.Entity != exclude {
			out = append(out, e.m)
		}
	}
	return out
}

// compareEntries is the global order: degree descending, global ordinal
// ascending, name ascending.
func compareEntries(a, b entry) int {
	if c := cmp.Compare(b.m.Degree, a.m.Degree); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return strings.Compare(a.m.Entity, b.m.Entity)
}
