package shard

// Cluster-level generation-keyed query cache.
//
// A cluster answer is a pure function of (per-shard snapshots, query), so
// the cache version is the vector of shard snapshot generations. The vector
// is only usable when every non-empty shard is clean (its snapshot covers
// all its ingested visits): a dirty shard would fold lazily inside the
// fan-out and answer over a *newer* generation than the version presented.
// Lookups check the vector before the fan-out; stores re-derive the vector
// from the generations the per-shard searches actually pinned and drop the
// answer on any mismatch — so an ingest racing the fan-out can only cost a
// missed store, never a stale (or time-travelled) cache entry.
//
// The pinned-generation check covers the fan-out but not TopK's home-shard
// visits read that precedes it, so TopK brackets that read with a vector
// derivation on each side and disables caching unless both are usable and
// equal (cluster.go): generations only grow, so equality proves the visits
// match the pinned version.

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"digitaltraces"
)

// cacheVersion returns the cluster's serving version — the slot-map epoch
// followed by the vector of shard snapshot generations — and whether caching
// may be used right now: false if any non-empty shard has no snapshot yet or
// has unfolded visits. Empty shards contribute the sentinel generation 0,
// which is unambiguous: a shard's first publish moves it to generation 1 and
// any pre-publish dirt makes the vector unusable instead. The epoch prefix
// makes a slot migration invalidate exactly like a generation bump: answers
// are placement-independent (degrees and global ordinals don't move with an
// entity), so this is defense-in-depth rather than a correctness need — but
// it means a migration's effect on the cache is the same observable event a
// refresh is, and cachePut's equality check inherits it for free.
func (c *Cluster) cacheVersion() (string, bool) {
	buf := make([]byte, 0, 8+8*len(c.shards))
	buf = binary.LittleEndian.AppendUint64(buf, c.slotmap().epoch)
	for _, sh := range c.shards {
		if sh.NumEntities() == 0 {
			buf = binary.LittleEndian.AppendUint64(buf, 0)
			continue
		}
		gen, ok := sh.SnapshotGeneration()
		if !ok || sh.PendingEntities() > 0 {
			return "", false
		}
		buf = binary.LittleEndian.AppendUint64(buf, gen)
	}
	return string(buf), true
}

// searchesVersion renders the generation vector a fan-out actually answered
// over: byShard is aligned to c.shards with nil for shards that were empty
// when the searches opened.
func searchesVersion(byShard []Stream) string {
	buf := make([]byte, 0, 8*len(byShard))
	for _, s := range byShard {
		var gen uint64
		if s != nil {
			gen = s.Generation()
		}
		buf = binary.LittleEndian.AppendUint64(buf, gen)
	}
	return string(buf)
}

// cacheGet answers from the cluster cache when one is configured and the
// version vector is usable.
func (c *Cluster) cacheGet(version string, versionOK bool, key string, start time.Time) ([]digitaltraces.Match, digitaltraces.QueryStats, bool) {
	if c.cache == nil || !versionOK {
		return nil, digitaltraces.QueryStats{}, false
	}
	ms, ok := c.cache.Get(version, key)
	if !ok {
		return nil, digitaltraces.QueryStats{}, false
	}
	out := make([]digitaltraces.Match, len(ms))
	copy(out, ms)
	return out, digitaltraces.QueryStats{CacheHit: true, Elapsed: time.Since(start)}, true
}

// cachePut stores a fan-out's answer, but only when the current epoch plus
// the generations the searches pinned are exactly the pre-checked version —
// see the file comment. (A migration publishing mid-query changes the
// epoch, so the store is skipped; the answer was still exact.)
func (c *Cluster) cachePut(version string, versionOK bool, byShard []Stream, key string, out []digitaltraces.Match) {
	if c.cache == nil || !versionOK {
		return
	}
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], c.slotmap().epoch)
	if string(pre[:])+searchesVersion(byShard) != version {
		return
	}
	stored := make([]digitaltraces.Match, len(out))
	copy(stored, out)
	c.cache.Put(version, key, stored)
}

// entityCacheKey keys a TopK query. The answer depends on the query
// entity's visits too, but those are covered by the version vector: a clean
// home shard's snapshot holds exactly the entity's ingested visits.
func entityCacheKey(entity string, k int) string {
	return fmt.Sprintf("e|%d|%s", k, entity)
}

// exampleCacheKey keys a TopKByExample query by its raw visits (length-
// prefixed venue names, nanosecond spans). Unlike the root package's cache —
// which keys by discretized ST-cells — two visit lists that only coincide
// after discretization get distinct keys here; that costs hit rate on such
// queries, never correctness.
func exampleCacheKey(visits []digitaltraces.Visit, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "x|%d", k)
	for _, v := range visits {
		fmt.Fprintf(&b, "|%d|%d|%d:%s", v.Start.UnixNano(), v.End.UnixNano(), len(v.Venue), v.Venue)
	}
	return b.String()
}
