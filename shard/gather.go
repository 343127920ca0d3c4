package shard

// One call per shard — how a cluster query gathers an exact answer.
//
// TopK asks the query entity's home shard for its first k+1 owned matches at
// floor 0; the reply carries the entity's visits too. Every other shard that
// holds entities is then asked once, in parallel, for its first k+1 owned
// matches at the home reply's k-th degree as the floor. TopKByExample asks
// every shard once at floor 0. Each reply is complete by construction, so the
// coordinator sorts all of them once by (degree ↓, global ordinal ↑, name ↑),
// cuts at k, and never asks again: no shard keeps any state between calls.
//
// # Exactness
//
// The merged answer equals the single DB's: the first k entries of the total
// order over the cluster's owned entities other than the query. An owned
// entity x a shard did not return has one of two properties.
//
//   - x lies below the floor it was asked at. The floor is 0 or the k-th
//     degree of the home reply, whose matches are k owned entities other than
//     the query (the home's search never counts the query entity). Those k
//     are in the cluster, so the final k-th degree is at least the floor, and
//     x, strictly below it, is strictly below k entries: it cannot be in the
//     answer under any tie-break. A match exactly at the floor is returned —
//     it can win on the ordinal.
//   - x comes after k+1 owned entries of its own shard that rank ahead of it
//     globally; then at least k of them are not the query, and x is not in
//     the answer. On a shard no migration has touched, local order (degree,
//     then local ID, which is ingest order) is the global order restricted to
//     the shard, so the shard's first k+1 rank ahead of everything after
//     them. On a touched shard local IDs no longer follow the global order,
//     so the request sets Ties and a capped reply also carries every entry
//     tied with its (k+1)-th: what it withholds is strictly below k+1 of its
//     own matches, whatever their order.
//
// Ownership is checked inside each shard's search, against the slot mask of
// the query's pinned map, after the bucket and size bounds and before a
// candidate is scored: a copy the map does not assign to the shard (a
// migration's source or target mid-move) is never returned and never counts
// toward the cap, so every entity contributes exactly its owner's copy, and a
// candidate the bounds drop is never hashed. A refused copy the bounds drop
// may raise the reply's Bound, which stays admissible. Under ingest racing new entities onto one shard,
// shard-local ID order can disagree with the registry's arrival order; the
// answer's degrees stay exact, and only the order among racing tied entities
// depends on the interleaving.

import (
	"fmt"
	"sync"
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
)

// fanout is a cluster query's per-shard state under its pinned slot map, one
// slot per shard that holds entities (the home shard always), in shard order:
// the reply its call returned and the row the query's trace holds for it.
type fanout struct {
	c       *Cluster
	sm      *SlotMap
	home    int // the home shard's slot; −1 for a query by example
	rows    []obs.ShardTrace
	replies []digitaltraces.Ranked
}

// newFanout lays out a fan-out under sm over the shards that hold entities (an
// empty shard has no candidates, and no index to search) and the home shard
// homeOrd (−1: none).
func (c *Cluster) newFanout(sm *SlotMap, homeOrd int) *fanout {
	f := &fanout{c: c, sm: sm, home: -1, rows: make([]obs.ShardTrace, 0, len(c.shards))}
	for i, sh := range c.shards {
		if i == homeOrd {
			f.home = len(f.rows)
		} else if sh.NumEntities() == 0 {
			continue
		}
		f.rows = append(f.rows, obs.ShardTrace{Shard: i})
	}
	f.replies = make([]digitaltraces.Ranked, len(f.rows))
	return f
}

// call asks slot j's shard for req under the pinned map — the slots it owns,
// and complete ties if the map marks it touched — and fills its reply and row.
func (f *fanout) call(j int, req RankRequest) error {
	sh := f.rows[j].Shard
	req.Owned, req.Ties = f.sm.Owned(sh), f.sm.touched[sh]
	start := time.Now()
	r, err := f.c.shards[sh].Rank(req)
	if err != nil {
		return err
	}
	row := &f.rows[j]
	row.Latency = time.Since(start)
	row.Generation, row.Checked, row.Bound = r.Generation, r.Checked, r.Bound
	row.Pulled, row.Rounds = len(r.Matches), 1
	// A reply the cap or the floor ended was cut; one at floor 0 that came
	// back short ran dry.
	row.Cut = r.Capped || req.Floor > 0
	row.Exhausted = !row.Cut
	if a, ok := f.c.shards[sh].(interface{ Addr() string }); ok {
		row.Addr = a.Addr() // remote shards name their server
	}
	f.replies[j] = r
	return nil
}

// callRest asks every slot not asked yet for req, in parallel: on remote
// shards, one concurrent wave of round trips. The first failure, in slot
// order, names its shard.
func (f *fanout) callRest(req RankRequest) error {
	errs := make([]error, len(f.rows))
	var wg sync.WaitGroup
	for j := range f.rows {
		if j == f.home {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.call(j, req); err != nil {
				errs[j] = fmt.Errorf("shard %d: %w", f.rows[j].Shard, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// gather finishes a fan-out: it checks the slot epoch, merges every reply
// but the excluded entity's matches into the top k, and fills the query's
// statistics from the rows. Checked sums the shards' exact degree
// computations, and PE and Pruned are recomputed over the cluster-wide
// candidate population with the single-DB formulas.
func (c *Cluster) gather(f *fanout, k int, exclude string, start time.Time) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	if err := c.checkSlotEpoch(); err != nil {
		return nil, digitaltraces.QueryStats{}, err
	}
	qs := digitaltraces.QueryStats{Shards: len(f.rows)}
	for _, row := range f.rows {
		qs.Checked += row.Checked
		qs.Pulled += row.Pulled
	}
	mergeStart := time.Now()
	es := make([]entry, 0, qs.Pulled)
	c.mu.RLock()
	for _, r := range f.replies {
		for _, m := range r.Matches {
			es = append(es, entry{m: m, rank: c.rankLocked(m.Entity)})
		}
	}
	c.mu.RUnlock()
	out := merge(es, k, exclude)
	qs.Merge = time.Since(mergeStart)
	n := c.NumEntities()
	if exclude != "" {
		n-- // the query entity is no candidate
	}
	if n > 0 {
		qs.PE = max(0, float64(qs.Checked-len(out))/float64(n))
		qs.Pruned = 1 - float64(qs.Checked)/float64(n)
	}
	qs.Elapsed = time.Since(start)
	return out, qs, nil
}
