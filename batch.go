package digitaltraces

import (
	"fmt"
	"time"

	"digitaltraces/internal/obs"
	"digitaltraces/internal/parallel"
)

// TopKBatch answers top-k for every named entity in one call, running each
// item through TopK's query path (cache, then search, then trace) on
// RunBatch. It returns the per-entity matches plus aggregate statistics
// across the whole batch (see RunBatch).
//
// Each item answers exactly what TopK answers for its entity. Every item
// pins its own snapshot, so under concurrent writes two items of one batch
// may answer at different generations; each is exact at its own.
func (db *DB) TopKBatch(entities []string, k, workers int) (map[string][]Match, QueryStats, error) {
	return RunBatch(entities, workers, db.tracer, db.NumEntities, func(entity string, batchID uint64) ([]Match, QueryStats, error) {
		return db.topK(entity, k, batchID)
	})
}

// RunBatch is the one batch runner: DB.TopKBatch and shard.Cluster.TopKBatch
// both call it with their own top-k query, traced under the batch ID it
// passes. It runs one query per entity on parallel.For (workers ≤ 0 selects
// GOMAXPROCS); every item's trace carries one batch ID drawn from tracer
// (nil: tracing off, ID 0), so tracetool can group a batch and explain its
// skew. It returns the per-entity matches plus aggregate statistics: Checked
// sums the exact degree computations (ZeroSkipped and BoundSkipped the
// entities settled without one), PE averages the per-query pruning
// effectiveness (Definition 5), Pruned is the batch-wide pruned fraction
// over the population numEntities reports once the items are answered, and
// Elapsed is wall-clock for the batch, which tracer also observes under
// obs.KindBatch. The first item error fails the batch.
func RunBatch(entities []string, workers int, tracer *obs.Tracer, numEntities func() int, query func(entity string, batchID uint64) ([]Match, QueryStats, error)) (map[string][]Match, QueryStats, error) {
	start := time.Now()
	if len(entities) == 0 {
		return nil, QueryStats{}, fmt.Errorf("digitaltraces: empty batch query set")
	}
	type result struct {
		ms  []Match
		qs  QueryStats
		err error
	}
	results := make([]result, len(entities))
	batchID := tracer.NextBatchID()
	parallel.For(len(entities), workers, func(i int) {
		ms, qs, err := query(entities[i], batchID)
		results[i] = result{ms, qs, err}
	})
	out := make(map[string][]Match, len(entities))
	var stats QueryStats
	var peSum float64
	for i, r := range results {
		if r.err != nil {
			return nil, QueryStats{}, r.err
		}
		out[entities[i]] = r.ms
		stats.Checked += r.qs.Checked
		stats.ZeroSkipped += r.qs.ZeroSkipped
		stats.BoundSkipped += r.qs.BoundSkipped
		peSum += r.qs.PE
	}
	stats.PE = peSum / float64(len(entities))
	// Each query scans at most |E|−1 candidates.
	if n := numEntities() - 1; n > 0 {
		stats.Pruned = 1 - float64(stats.Checked)/float64(len(entities)*n)
	}
	stats.Elapsed = time.Since(start)
	// The whole batch is histogram-only under its own kind; the items carry
	// the structured detail.
	tracer.Observe(obs.KindBatch, stats.Elapsed)
	return out, stats, nil
}
