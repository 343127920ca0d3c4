package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/trace"
)

// kNN join — the third item of the paper's future work (Section 8.2):
// "similarity join problems over digital traces, combining the kNN queries
// issued separately for multiple entities together."
//
// KNNJoin evaluates top-k for a whole set of query entities against the
// indexed population. Two optimizations over issuing independent TopK
// calls:
//
//  1. queries are processed in MinSigTree leaf order, so consecutive
//     queries touch overlapping subtrees and (with a disk-backed
//     SequenceSource) overlapping blocks — the same locality argument as
//     Section 7.6's record layout;
//  2. queries run on a bounded worker pool. The tree is immutable during
//     the join, so concurrent TopK calls are safe.

// JoinResult is the answer for one query entity of a join, with that
// query's own search statistics and wall-clock — so callers can attribute
// batch cost per item instead of only in aggregate.
type JoinResult struct {
	Query   trace.EntityID
	Matches []Result
	Stats   SearchStats
	Elapsed time.Duration
}

// JoinStats aggregates the per-query search statistics.
type JoinStats struct {
	Queries      int
	TotalChecked int
	AvgPE        float64
}

// KNNJoin answers top-k for every query entity. Workers ≤ 0 selects
// GOMAXPROCS. Results are ordered by query entity ID. All query entities
// must be present in the sequence source (they need not be indexed).
func (t *Tree) KNNJoin(queries []trace.EntityID, k int, measure adm.Measure, workers int) ([]JoinResult, JoinStats, error) {
	var js JoinStats
	if len(queries) == 0 {
		return nil, js, fmt.Errorf("core: empty join query set")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	// Leaf-order schedule: queries that live in the same leaf run near
	// each other in time.
	order := append([]trace.EntityID(nil), queries...)
	pos := t.leafOrder()
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := pos[order[i]], pos[order[j]]
		if pi != pj {
			return pi < pj
		}
		return order[i] < order[j]
	})

	type item struct {
		q       trace.EntityID
		res     []Result
		stats   SearchStats
		elapsed time.Duration
		err     error
	}
	out := make([]item, len(order))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				e := order[i]
				s := t.src.Get(e)
				if s == nil {
					out[i] = item{q: e, err: fmt.Errorf("core: join query %d missing from source", e)}
					continue
				}
				qStart := time.Now()
				res, stats, err := t.TopK(s, k, measure)
				out[i] = item{q: e, res: res, stats: stats, elapsed: time.Since(qStart), err: err}
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()

	results := make([]JoinResult, 0, len(out))
	for _, it := range out {
		if it.err != nil {
			return nil, js, it.err
		}
		results = append(results, JoinResult{Query: it.q, Matches: it.res, Stats: it.stats, Elapsed: it.elapsed})
		js.TotalChecked += it.stats.Checked
		js.AvgPE += it.stats.PE
	}
	js.Queries = len(results)
	js.AvgPE /= float64(js.Queries)
	sort.Slice(results, func(i, j int) bool { return results[i].Query < results[j].Query })
	return results, js, nil
}

// leafOrder maps every indexed entity to its leaf's position in a
// deterministic (routing-index-ordered) depth-first traversal. Entities not
// indexed map to the zero position.
func (t *Tree) leafOrder() map[trace.EntityID]int {
	pos := make(map[trace.EntityID]int, t.sigs.len())
	n := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.level == t.m {
			n++
			for _, e := range nd.entities {
				pos[e] = n
			}
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return pos
}

// LeafOrderedEntities returns the indexed entities in MinSigTree leaf
// order — the record layout Section 7.6 stores on disk so closely
// associated entities share blocks.
func (t *Tree) LeafOrderedEntities() []trace.EntityID {
	out := make([]trace.EntityID, 0, t.sigs.len())
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.level == t.m {
			sorted := append([]trace.EntityID(nil), nd.entities...)
			slices.Sort(sorted)
			out = append(out, sorted...)
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}
