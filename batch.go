package digitaltraces

import (
	"fmt"
	"time"

	"digitaltraces/internal/obs"
	"digitaltraces/internal/trace"
)

// TopKBatch answers top-k for every named entity in one call, fanning the
// queries out over the bounded worker pool of core.Tree.KNNJoin (queries are
// scheduled in MinSigTree leaf order for locality; workers ≤ 0 selects
// GOMAXPROCS). It returns the per-entity matches plus aggregate statistics
// across the whole batch: Checked sums the exact degree computations
// (ZeroSkipped and BoundSkipped the entities settled without one), PE
// averages the per-query pruning effectiveness (Definition 5), Pruned is the
// batch-wide pruned fraction, and Elapsed is wall-clock for the batch.
//
// The whole batch answers against one pinned index snapshot, so results are
// identical to issuing TopK for each entity sequentially against that
// snapshot — the tree search is deterministic, and no Refresh or BuildIndex
// swap can slide in between two queries of one batch (concurrent maintenance
// only publishes new snapshots; it never mutates the pinned one).
func (db *DB) TopKBatch(entities []string, k, workers int) (map[string][]Match, QueryStats, error) {
	startT := time.Now()
	if len(entities) == 0 {
		return nil, QueryStats{}, fmt.Errorf("digitaltraces: empty batch query set")
	}
	s, err := db.snapshotForQuery()
	if err != nil {
		return nil, QueryStats{}, err
	}
	ids := make([]trace.EntityID, len(entities))
	db.mu.RLock()
	for i, name := range entities {
		e, ok := db.names[name]
		if !ok {
			db.mu.RUnlock()
			return nil, QueryStats{}, fmt.Errorf("digitaltraces: unknown entity %q", name)
		}
		ids[i] = e
	}
	db.mu.RUnlock()
	// Entities registered after the pinned snapshot was built have no
	// sequences in it; fail with the entity's name rather than a bare core
	// error from deep inside the join.
	for i, e := range ids {
		if _, err := s.sequences(e, entities[i]); err != nil {
			return nil, QueryStats{}, err
		}
	}
	joined, js, err := s.tree.KNNJoin(ids, k, s.measure, workers)
	if err != nil {
		return nil, QueryStats{}, err
	}
	batchID := db.tracer.NextBatchID()
	out := make(map[string][]Match, len(joined))
	stats := QueryStats{Checked: js.TotalChecked, PE: js.AvgPE}
	for _, jr := range joined {
		ms := make([]Match, len(jr.Matches))
		for i, r := range jr.Matches {
			ms[i] = Match{Entity: s.byID[r.Entity], Degree: r.Degree}
		}
		out[s.byID[jr.Query]] = ms
		stats.ZeroSkipped += jr.Stats.ZeroSkipped
		stats.BoundSkipped += jr.Stats.BoundSkipped
		if batchID != 0 {
			// Each batch item records its own trace, linked by the shared
			// batch ID so tracetool can group a batch and explain its skew.
			qt := obs.QueryTrace{
				Kind:         obs.KindTopK,
				BatchID:      batchID,
				Entity:       s.byID[jr.Query],
				K:            k,
				Generation:   s.generation,
				Checked:      jr.Stats.Checked,
				ZeroSkipped:  jr.Stats.ZeroSkipped,
				BoundSkipped: jr.Stats.BoundSkipped,
				Start:        startT,
				Total:        jr.Elapsed,
			}
			if len(ms) == k && k > 0 {
				qt.KthDegree = ms[k-1].Degree
			}
			db.tracer.Record(qt)
		}
	}
	stats.Elapsed = time.Since(startT)
	// Batch-wide pruned fraction: each query scans at most |E|−1 candidates.
	if n := s.tree.Len() - 1; n > 0 && js.Queries > 0 {
		stats.Pruned = 1 - float64(js.TotalChecked)/float64(js.Queries*n)
	}
	// The whole batch is histogram-only under its own kind; the items above
	// carry the structured detail.
	db.tracer.Observe(obs.KindBatch, stats.Elapsed)
	return out, stats, nil
}
