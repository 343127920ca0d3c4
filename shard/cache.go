package shard

// The cluster's side of the hot-query cache (internal/qcache, whose doc
// comment carries the soundness argument): the version is the slot-map epoch
// plus the vector of shard snapshot generations, usable once every non-empty
// shard has published a snapshot, which covers its acknowledged writes.

import (
	"encoding/binary"
	"fmt"
	"strings"

	"digitaltraces"
)

// cacheVersion returns the cluster's serving version — the slot-map epoch
// followed by the shard snapshot generations, also returned decoded for
// traces — and whether it is usable: every non-empty shard has a snapshot.
// A shard acknowledges a write only once a published snapshot covers it, so
// its generation covers every write it acknowledged. An empty shard
// contributes generation 0, unambiguous since a first publish makes 1. The
// epoch makes a slot migration invalidate like a write; answers are
// placement-independent, so that is defense-in-depth.
func (c *Cluster) cacheVersion() (string, []uint64, bool) {
	gens := make([]uint64, len(c.shards))
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+8*len(c.shards)), c.slotmap().epoch)
	for i, sh := range c.shards {
		if sh.NumEntities() > 0 {
			gen, ok := sh.SnapshotGeneration()
			if !ok {
				return "", nil, false
			}
			gens[i] = gen
		}
		buf = binary.LittleEndian.AppendUint64(buf, gens[i])
	}
	return string(buf), gens, true
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
