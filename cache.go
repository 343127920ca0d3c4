package digitaltraces

// The DB's side of the hot-query cache (internal/qcache, whose doc comment
// carries the protocol's soundness argument): the version is the serving
// snapshot's generation, which covers every acknowledged write, and the
// revalidator (stillExact) decides whether an answer cached under an older
// generation is still the exact answer under the serving one.
//
// Why revalidation is sound. A top-k answer (Definition 4) depends only on
// each entity's degree against the query, and a degree only on the two
// entities' sequences. A fold re-stages only its dirty entities and shares
// every other entity's sequences (refreshSnapshot), so between the cached
// answer's generation and the serving one only the union C of the folds'
// dirty sets can have changed degree. If the query entity and every answer
// member are outside C, the answer is full (k entries), and every member of
// C ranks after the answer's k-th in the canonical order (degree descending,
// entity ID ascending), then no entity outside the answer can overtake its
// k-th and the answer's own order is unchanged: it is exactly the current
// canonical answer. A build, an open or a bulk load starts an empty dirty
// log, so nothing cached before it is ever revalidated across it.

import (
	"encoding/binary"
	"slices"
	"strconv"

	"digitaltraces/internal/qcache"
	"digitaltraces/internal/trace"
)

// revalidateLimit caps the changed entities a revalidation scores. Scoring
// one costs one exact degree, ~0.4 µs (adm.degree_ns on the benchmark
// population), so 256 of them cost ~0.1 ms, half of a ~0.2 ms search: a
// revalidation never costs more than the miss it replaces.
const revalidateLimit = 256

// dirtyLogLen is how many publishes back a snapshot's dirty log reaches: an
// entry stamped further back always misses.
const dirtyLogLen = 64

// WithQueryCache equips the DB with a generation-keyed answer cache holding
// up to capacity entries (FIFO displacement). TopK, TopKByExample and every
// TopKBatch item consult it; a hit returns the memoized exact answer with
// QueryStats.CacheHit set and no search work, and is always the current
// answer (cache.go argues why). A publish stales only what it touches: an answer cached before an
// acknowledged write's fold is revalidated against the entities the fold
// changed and stays cached unless they can change it, while BuildIndex,
// OpenIndex and a bulk load stale every entry. Hot repeated queries (the
// Zipfian celebrity-lookup mix of the benchmark's zipf_cached and
// zipf_mixed_ingest workloads) skip the search entirely.
func WithQueryCache(capacity int) Option {
	return func(db *DB) error {
		db.cache = qcache.New[[]Match](capacity)
		return nil
	}
}

// cacheVersion is the DB's cache version: the serving generation, which
// covers every write acknowledged before the load — none before the first
// publish. The snapshot is returned for revalidation and a hit's trace.
func (db *DB) cacheVersion() (string, *snapshot, bool) {
	s := db.snap.Load()
	if s == nil {
		return "", nil, false
	}
	return strconv.FormatUint(s.generation, 16), s, true
}

// appendDirty returns the dirty log of a fold's snapshot: prev's log plus
// the fold's dirty entities, at most dirtyLogLen publishes long. The result
// is a fresh slice, so prev's log is never written.
func appendDirty(prev [][]trace.EntityID, ids []trace.EntityID) [][]trace.EntityID {
	if len(prev) == dirtyLogLen {
		prev = prev[1:]
	}
	return append(slices.Clip(prev), ids)
}

// changedSince returns the entities the publishes after generation gen up to
// s changed, ascending and distinct, or false when s's dirty log does not
// reach back to gen or they number more than revalidateLimit.
func (s *snapshot) changedSince(gen uint64) ([]trace.EntityID, bool) {
	if gen >= s.generation || s.generation-gen > uint64(len(s.dirty)) {
		return nil, false
	}
	sets := s.dirty[len(s.dirty)-int(s.generation-gen):]
	if len(sets) == 1 {
		return sets[0], len(sets[0]) <= revalidateLimit // a fold's dirty set is ascending and distinct
	}
	var out []trace.EntityID
	for _, ids := range sets {
		if out = append(out, ids...); len(out) > revalidateLimit {
			slices.Sort(out)
			if out = slices.Compact(out); len(out) > revalidateLimit {
				return nil, false
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out), true
}

// stillExact is the DB's revalidator: it reports whether answer, the exact
// top-k answer under generation since (hex, as cacheVersion formats it) for
// the query resolve finds, is still the exact answer at s. See the file
// comment for why the rule is sound.
func (db *DB) stillExact(s *snapshot, since string, k int, answer []Match, resolve func(*snapshot) (*trace.Sequences, error)) bool {
	gen, err := strconv.ParseUint(since, 16, 64)
	if err != nil {
		return false
	}
	changed, ok := s.changedSince(gen)
	if !ok {
		return false
	}
	if len(answer) != k {
		// A short answer holds every entity, and changed is never empty (a
		// fold publishes only with dirty entities): one of them may be new.
		return false
	}
	q, err := resolve(s)
	if err != nil {
		return false
	}
	isChanged := func(e trace.EntityID) bool {
		_, found := slices.BinarySearch(changed, e)
		return found
	}
	if q.Entity >= 0 && isChanged(q.Entity) { // an example query has no entity
		return false
	}
	db.mu.RLock()
	var kthID trace.EntityID
	for _, m := range answer {
		e, ok := db.names[m.Entity]
		if !ok || isChanged(e) {
			db.mu.RUnlock()
			return false
		}
		kthID = e
	}
	db.mu.RUnlock()
	kth := answer[k-1].Degree
	for _, c := range changed {
		cs := s.store.Get(c)
		if cs == nil {
			return false
		}
		if d := db.measure.Degree(q, cs); d > kth || d == kth && c < kthID {
			return false
		}
	}
	return true
}

// exampleKey builds the cache key of a TopKByExample query from the
// discretized ST-cells of the example, not the raw visits: two examples
// that discretize identically (same cells after epoch/unit rounding) are the
// same query and share an entry. Base cells are canonical — NewSequences
// sorts and dedups them — so equal queries produce equal keys.
func exampleKey(q *trace.Sequences, k int) string {
	base := q.Base()
	buf := make([]byte, 0, 8*len(base)+16)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	for _, c := range base {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return "x|" + string(buf)
}
