package core

import (
	"fmt"
	"runtime"
	"slices"
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
// indexed population, on a bounded worker pool (the index is immutable, so
// concurrent TopK calls are safe). Queries are scheduled in ascending ID
// order, the order the answers come back in.

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
func (p *Postings) KNNJoin(queries []trace.EntityID, k int, measure adm.Measure, workers int) ([]JoinResult, JoinStats, error) {
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
	order := slices.Sorted(slices.Values(queries))

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
				s := p.src.Get(e)
				if s == nil {
					out[i] = item{q: e, err: fmt.Errorf("core: join query %d missing from source", e)}
					continue
				}
				qStart := time.Now()
				res, stats, err := p.TopK(s, k, measure)
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
	return results, js, nil
}
