package digitaltraces

// The DB's side of the hot-query cache (internal/qcache, whose doc comment
// carries the soundness argument): the version is the serving snapshot's
// generation, usable while that snapshot covers every acknowledged write.

import (
	"encoding/binary"
	"strconv"

	"digitaltraces/internal/qcache"
	"digitaltraces/internal/trace"
)

// WithQueryCache equips the DB with a generation-keyed answer cache holding
// up to capacity entries (FIFO displacement). TopK and TopKByExample consult
// it; a hit returns the memoized exact answer with QueryStats.CacheHit set
// and no search work, and is always the current answer (internal/qcache
// argues why): any BuildIndex/Refresh/lazy fold starts from a cold cache.
// Hot repeated queries (the Zipfian celebrity-lookup mix cmd/bench -scenario
// cache models) skip the search entirely.
func WithQueryCache(capacity int) Option {
	return func(db *DB) error {
		db.cache = qcache.New[[]Match](capacity)
		return nil
	}
}

// cacheVersion is the DB's cache version: the serving generation, usable
// while its snapshot covers every acknowledged write — covering, the check
// snapshotForQuery's fast path makes. The snapshot is returned for a hit's
// trace.
func (db *DB) cacheVersion() (string, *snapshot, bool) {
	s, _ := db.covering()
	if s == nil {
		return "", nil, false
	}
	return strconv.FormatUint(s.generation, 16), s, true
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
