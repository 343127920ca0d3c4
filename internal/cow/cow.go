// Package cow is the copy-on-write layer of the incrementally maintained
// index (Section 4.2.3): trace.Store, the postings' entity table and the
// level-1 cell index each hold what was written since their base was sealed
// in a Map.
package cow

import (
	"maps"
	"slices"
)

// Map is one generation of a persistent map; the zero value is empty. Derive
// freezes the receiver's writes and returns the next generation, which reads
// them and writes its own. Frozen writes form a stack of levels shrinking
// geometrically: a derive pushes the receiver's and merges the top two while
// the lower is at most twice the upper, as a binary counter carries. So a
// derive copies O(levels) slice headers, an entry is copied O(log n) times
// amortized, and a lookup probes O(log n) maps. Values are shared: never
// change one in place. Any number of goroutines may read a generation no one
// writes; Derive writes nothing they read.
type Map[K comparable, V any] struct {
	own    map[K]V   // this generation's writes
	levels []map[K]V // frozen writes, oldest first
	writes int       // Sets since the map was created, its ancestors' included
	frozen bool      // set once Derive shares own
}

// Get returns the newest write of k this generation can see.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	if v, ok = m.own[k]; !ok {
		for i := len(m.levels) - 1; i >= 0 && !ok; i-- {
			v, ok = m.levels[i][k]
		}
	}
	return v, ok
}

// Set writes k in this generation. It panics once Derive has frozen the map.
func (m *Map[K, V]) Set(k K, v V) {
	if m.frozen {
		panic("cow: Set on a frozen map (Derive shared its writes with a newer generation)")
	}
	if m.own == nil {
		m.own = make(map[K]V)
	}
	m.own[k] = v
	m.writes++
}

// Writes returns the Sets the map and its ancestors took: a bound on its
// keys, their count when no key is set twice.
func (m *Map[K, V]) Writes() int { return m.writes }

// Outgrows is the one reseal rule: once a map took half as many writes as its
// owner's sealed base holds entries, the owner folds both into a fresh base
// instead of deriving the map — an O(base) step, so O(1) per write.
func (m *Map[K, V]) Outgrows(base int) bool { return 2*m.writes >= base }

// Derive freezes the receiver, which stays readable and may be derived from
// again, and returns the next generation.
func (m *Map[K, V]) Derive() Map[K, V] {
	m.frozen = true
	levels := slices.Clip(m.levels) // the merges below must not write an array the receiver reads
	if len(m.own) > 0 {
		levels = append(levels, m.own)
		for n := len(levels); n >= 2 && len(levels[n-2]) <= 2*len(levels[n-1]); n-- {
			merged := make(map[K]V, len(levels[n-2])+len(levels[n-1]))
			maps.Copy(merged, levels[n-2])
			maps.Copy(merged, levels[n-1])
			levels = append(levels[:n-2], merged)
		}
	}
	return Map[K, V]{levels: levels, writes: m.writes}
}

// Flat returns a plain map of every key's newest write, a copy made in
// O(entries), or nil for an empty map.
func (m *Map[K, V]) Flat() map[K]V {
	if m.writes == 0 {
		return nil
	}
	flat := make(map[K]V)
	for _, l := range append(slices.Clip(m.levels), m.own) {
		maps.Copy(flat, l)
	}
	return flat
}
