// Package qcache is a version-keyed answer cache for exact query engines
// whose serving state advances through discrete published versions (a DB's
// snapshot generation, a cluster's slot epoch plus shard generations), and
// the one protocol both engines answer through, DoRevalidating (Do without
// a revalidator).
//
// Every entry is stamped with the version that produced it. A lookup
// presenting that version is a hit. A lookup presenting another version finds
// a stale entry and asks the engine's revalidator whether the entry is still
// the exact answer under the presented version: if it is, the entry is served
// and re-stamped at that version; if not (or the engine has no revalidator),
// it is dropped and the lookup misses. A publish therefore costs the cache
// nothing up front, and stales only what the engine cannot vouch for.
//
// Soundness rests on two engine facts: versions only grow, and a usable
// version's state covers every acknowledged write — a write is acknowledged
// only once a publish covers it, and a publish moves the version. So a version read
// usable and equal before and after a computation proves the computation saw
// exactly that version's state, every read it made included (a cluster
// TopK's home-shard visits, say): a change in between would have moved the
// version or made it unusable. Do stores only under that condition, and looks
// up only under a usable version, so an entry is the exact answer at its
// stamp. A hit at the presented version is then the exact current answer; a
// revalidated hit is one because the revalidator proves that nothing the
// engine published between the stamp and the presented version changes the
// answer (a DB's argument is in its cache.go). A racing write can cost a
// missed store or a dropped entry, never a stale answer.
package qcache

import (
	"slices"
	"strconv"
	"sync"
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits        uint64 // lookups answered from the cache, revalidated ones included
	Misses      uint64 // lookups that found no entry, or only a stale one that failed revalidation
	Revalidated uint64 // stale entries the revalidator vouched for, served and re-stamped (counted in Hits)
	Invalidated uint64 // stale entries dropped, rejected by the revalidator or found without one (counted in Misses)
	Evictions   uint64 // entries displaced by capacity (never by staleness)
	Entries     int    // entries held, whatever their version
}

// Cache maps key → V, each entry stamped with the version that produced it.
// Safe for concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]entry[V]
	order    []string // keys of the held entries in insertion order, for FIFO eviction
	stats    Stats
}

// entry is one held value and its stamp: the version the value is the exact
// answer under.
type entry[V any] struct {
	version string
	val     V
}

// Revalidator reports whether val, the exact answer at version since, is
// still the exact answer at the version the lookup presented. It runs
// outside the cache's lock.
type Revalidator[V any] func(since string, val V) bool

// New creates a cache holding at most capacity entries (capacity ≥ 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		entries:  make(map[string]entry[V], capacity),
		order:    make([]string, 0, capacity),
	}
}

// Get returns the value stored under key at exactly this version. An entry
// stamped with any other version is stale: without a revalidator it is
// dropped and the lookup misses.
func (c *Cache[V]) Get(version, key string) (V, bool) {
	return c.lookup(version, key, nil)
}

// Put stores the value computed under version, stamped with it. A held entry
// under the same key is overwritten in place, whatever its stamp.
func (c *Cache[V]) Put(version, key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		if len(c.entries) >= c.capacity {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			c.stats.Evictions++
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = entry[V]{version: version, val: v}
}

// Do answers one query through c with no revalidator: a stale entry is a
// miss. See DoRevalidating.
func Do[E any](c *Cache[[]E], key string, version func() (string, bool), compute func() ([]E, error)) (out []E, hit bool, err error) {
	return DoRevalidating(c, key, version, nil, compute)
}

// DoRevalidating answers one query through c: it reads the engine's version
// and, if it is usable and c holds key stamped with it — or stamped with
// another that revalidate vouches for — returns a copy of the stored answer
// (hit). Otherwise it runs compute, and stores a copy of a successful answer
// only if the version, re-read, is still usable and unchanged (see the
// package comment). A nil revalidate makes every stale entry a miss. An
// unusable version runs compute without touching the cache or its counters;
// a nil cache just computes.
func DoRevalidating[E any](c *Cache[[]E], key string, version func() (string, bool), revalidate Revalidator[[]E], compute func() ([]E, error)) (out []E, hit bool, err error) {
	if c == nil {
		out, err = compute()
		return out, false, err
	}
	v, ok := version()
	if ok {
		if stored, found := c.lookup(v, key, revalidate); found {
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

// lookup is the one lookup behind Get and DoRevalidating. A stale entry is
// revalidated outside the lock, so a slow revalidation never stalls other
// lookups; the verdict is applied only if the entry still carries the stamp
// it judged.
func (c *Cache[V]) lookup(version, key string, revalidate Revalidator[V]) (V, bool) {
	var zero V
	c.mu.Lock()
	e, ok := c.entries[key]
	switch {
	case !ok:
		c.stats.Misses++
		c.mu.Unlock()
		return zero, false
	case e.version == version:
		c.stats.Hits++
		c.mu.Unlock()
		return e.val, true
	}
	c.mu.Unlock()

	valid := revalidate != nil && revalidate(e.version, e.val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[key]; ok && cur.version == e.version {
		if valid {
			cur.version = version
			c.entries[key] = cur
		} else {
			c.drop(key)
		}
	}
	if !valid {
		c.stats.Misses++
		c.stats.Invalidated++
		return zero, false
	}
	c.stats.Hits++
	c.stats.Revalidated++
	return e.val, true
}

// drop removes key's entry from the map and from the FIFO order, so the
// order holds exactly the held entries: a later eviction can never take a
// fresh re-put of the same key for the dropped one. Callers must hold mu.
func (c *Cache[V]) drop(key string) {
	delete(c.entries, key)
	i := slices.Index(c.order, key)
	c.order = slices.Delete(c.order, i, i+1)
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}
