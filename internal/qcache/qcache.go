// Package qcache is a version-keyed answer cache for exact query engines
// whose serving state advances through discrete published versions (a DB's
// snapshot generation, a cluster's slot epoch plus shard generations), and
// the one protocol both engines answer through, Do.
//
// Invalidation is free: entries are stored under the version that produced
// them, and a lookup presenting a version the cache has not seen discards
// everything it holds — a single map swap — so a publish invalidates every
// cached answer at zero per-entry cost. The cache never extends an answer's
// life across versions; it only short-circuits repeats within one.
//
// Soundness rests on two engine facts: versions only grow, and a usable
// version's state covers every acknowledged write — a write is acknowledged
// only once a publish covers it, and a publish moves the version. So a version read
// usable and equal before and after a computation proves the computation saw
// exactly that version's state, every read it made included (a cluster
// TopK's home-shard visits, say): a change in between would have moved the
// version or made it unusable. Do stores only under that condition, and looks
// up only under a usable version, so a hit is the exact current answer and a
// racing write can cost a missed store, never a stale entry.
package qcache

import (
	"hash/fnv"
	"slices"
	"strconv"
	"sync"
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 // lookups answered from the cache
	Misses    uint64 // lookups that found nothing (including version wipes)
	Evictions uint64 // entries displaced by capacity (never by version bumps)
	Entries   int    // live entries for the current version
}

// Cache maps (version, key) → V for a single current version. Safe for
// concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	version  string
	entries  map[uint64]entry[V]
	order    []uint64 // insertion order of hashes, for FIFO eviction
	stats    Stats
}

// entry stores the full key alongside the value: lookups compare it so a
// 64-bit hash collision degrades to a miss (or an overwrite on store), never
// to a wrong answer.
type entry[V any] struct {
	key string
	val V
}

// New creates a cache holding at most capacity entries (capacity ≥ 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[uint64]entry[V], capacity),
	}
}

// Get returns the value stored under key at exactly this version. A version
// the cache has not seen wipes it first, so an answer computed under any
// earlier version is unreachable.
func (c *Cache[V]) Get(version, key string) (V, bool) {
	return c.getHashed(version, hashKey(key), key)
}

// Put stores the value computed under version, wiping first when the cache
// currently holds a different version's entries. An entry is only ever
// reachable by a Get presenting the same version it was stored under, so
// racing Puts and Gets across a version bump can waste work (mutual wipes)
// but can never surface a stale answer.
func (c *Cache[V]) Put(version, key string, v V) {
	c.putHashed(version, hashKey(key), key, v)
}

// Do answers one query through c: it reads the engine's version and, if it
// is usable and holds key, returns a copy of the stored answer (hit).
// Otherwise it runs compute, and stores a copy of a successful answer only if
// the version, re-read, is still usable and unchanged (see the package
// comment). An unusable version runs compute without touching the cache or
// its counters; a nil cache just computes.
func Do[E any](c *Cache[[]E], key string, version func() (string, bool), compute func() ([]E, error)) (out []E, hit bool, err error) {
	if c == nil {
		out, err = compute()
		return out, false, err
	}
	v, ok := version()
	if ok {
		if stored, found := c.Get(v, key); found {
			return slices.Clone(stored), true, nil
		}
	}
	if out, err = compute(); err != nil || !ok {
		return out, false, err
	}
	if after, ok := version(); ok && after == v {
		c.Put(v, key, slices.Clone(out))
	}
	return out, false, nil
}

// EntityKey keys a query for a named entity: kind tag, k, then the name,
// which can contain anything and so goes last, delimited by the key's end.
func EntityKey(entity string, k int) string {
	return "e|" + strconv.Itoa(k) + "|" + entity
}

// getHashed is Get with the hash precomputed — split out so tests can force
// two distinct keys onto one hash and exercise the collision guard.
func (c *Cache[V]) getHashed(version string, h uint64, key string) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersion(version)
	e, ok := c.entries[h]
	if !ok || e.key != key {
		c.stats.Misses++
		return zero, false
	}
	c.stats.Hits++
	return e.val, true
}

// putHashed is Put with the hash precomputed (see getHashed).
func (c *Cache[V]) putHashed(version string, h uint64, key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersion(version)
	if _, ok := c.entries[h]; ok {
		// Same key: refresh the value. Colliding key: overwrite — the slot
		// holds one answer and the full-key compare on Get keeps it honest.
		c.entries[h] = entry[V]{key: key, val: v}
		return
	}
	if len(c.entries) >= c.capacity {
		drop := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, drop)
		c.stats.Evictions++
	}
	c.entries[h] = entry[V]{key: key, val: v}
	c.order = append(c.order, h)
}

// syncVersion wipes the cache when the presented version differs from the
// stored one. Callers must hold mu.
func (c *Cache[V]) syncVersion(version string) {
	if version == c.version {
		return
	}
	c.version = version
	if len(c.entries) > 0 {
		c.entries = make(map[uint64]entry[V], c.capacity)
		c.order = c.order[:0]
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// hashKey is 64-bit FNV-1a over the key bytes.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never errors
	return h.Sum64()
}
