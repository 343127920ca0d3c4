package shard

// Threshold-pruned scatter-gather — the Fagin-style early-termination
// coordinator over per-shard incremental searches.
//
// Asking every shard for a full local top-k and merging the ≤ N·k candidates
// costs N complete searches per query, so single-query latency would *rise*
// with the shard count even as build throughput scales. The threshold-
// algorithm observation (Fagin et al.; see also the incremental access in
// PAPERS.md's trajectory and personal-trace search entries) is that the
// coordinator only needs each shard's results down to the global k-th
// degree: every digitaltraces.Search streams results in exact rank order
// together with an admissible upper bound on its remainder (Batch.Bound),
// so once the merged k-th result strictly beats a shard's bound, nothing
// that shard has not yet emitted can enter the global answer — that shard's
// search stops where it stands, leaf scans unperformed.
//
// # Exactness
//
// boundedGather returns exactly mergeEntries over the full per-shard streams
// (the full merge), by the prefix-cut argument:
//
//   - Each stream is in its shard's exact order, so a pulled prefix is a
//     prefix of the full list; the k-way merge consumes lists in order, so
//     merging prefixes instead of full lists can only change the answer if
//     an unpulled element belonged in it.
//   - A shard is only cut when its bound b satisfies kth > b, where kth is
//     the k-th merged degree over current prefixes. Every unpulled element
//     has degree ≤ b < kth, and the final merged k-th degree only grows as
//     prefixes extend, so the element is strictly dominated by k merged
//     results — under any tie-break, it cannot displace them. The cut must
//     be strict: bounds cap degrees only, so an unpulled element at degree
//     == kth could still win on the (ordinal, name) tie-break.
//   - A shard that reaches k+1 pulled entries is cut unconditionally: at
//     most one of them is the excluded self, so ≥ k same-shard entries
//     precede every unpulled element in the shard's own exact order; if an
//     unpulled element made the global top-k, those k would too — k+1 > k.
//     This cap also bounds the worst case (a degree plateau across shards)
//     at k+1 results per shard.
//
//   - Every pull carries the merged k-th degree as the stream's floor (0
//     while fewer than k are merged): the shard returns nothing below it and
//     ends the stream once its bound drops below it. That is the strict cut
//     above, taken on the shard instead of at the coordinator: what the
//     stream withholds has degree < floor ≤ the final k-th. Matches at the
//     floor are still returned, so a pulled prefix is still a prefix of the
//     shard's exact order, and the k+1 cap argument is untouched.
//
// The opens already carry each stream's first pull (Backend.OpenSearch), so
// the gather usually starts with every stream's first batch in hand. After
// that an aligned stream is asked for everything up to its cap at once — the
// floor, not the batch size, bounds the shard's work — and loose streams
// double their batch per round.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
)

// pullReq asks one stream for up to want more results at or above floor.
type pullReq struct {
	stream int
	want   int
	floor  float64
}

// pullResp carries one stream's round: the results pulled (in stream order,
// after the slot-ownership filter), how many the stream actually surrendered
// before filtering (raw — liveness must be judged pre-filter, or a stream
// whose whole batch was foreign copies would be declared dry with owned
// candidates still unpulled), the stream's bound after the pull, whether
// more results may remain, the floor the pull carried (a stream that ends
// under a positive floor was cut by it), and the wall-clock the pull cost
// (attributed to the stream's shard).
type pullResp struct {
	entries []entry
	raw     int
	bound   float64
	live    bool
	floor   float64
	took    time.Duration
}

// boundedGather merges the incremental streams rows stand for into the
// global top-k with threshold early termination, excluding the named entity.
// Each stream's state is its trace row: the gather keeps its Pulled, Rounds,
// Cut, Exhausted, Bound and Latency, and leaves every other field to the
// caller. first, when not nil, is every stream's first round, already pulled
// (by the fused opens). pull must fulfill every request of a round (it may
// fan out in parallel) and return responses in request order. Returns the
// merged answer, the number of excluded entries skipped, and the
// coordinator's cumulative merge time (the cost not attributable to any
// stream).
//
// loose (nil = none) marks streams whose shard-local emission order no
// longer matches the global arrival order restricted to the shard — shards
// a slot migration has touched (slotmap.go). A loose stream loses the k+1
// cap (the cap's "≥ k same-shard entries precede every unpulled element
// *globally*" step needs the alignment) and its buffer is re-sorted under
// the global total order after every append, which restores the merge's
// sorted-input precondition: a pulled prefix is still tie-complete at the
// strict threshold cut — every unpulled element is strictly below the
// merged k-th degree — so sorting the prefix agrees with sorting the full
// list on everything that can reach the answer. For an aligned stream the
// sort is a no-op, so loose streams trade only pruning, never exactness.
func boundedGather(rows []obs.ShardTrace, k int, exclude string, loose []bool, first []pullResp, pull func([]pullReq) ([]pullResp, error)) ([]digitaltraces.Match, int, time.Duration, error) {
	bufs := make([][]entry, len(rows))
	for i := range rows {
		rows[i].Bound = 1 // degrees live in [0, 1]; an unpulled stream may hold anything
	}
	isLoose := func(i int) bool { return loose != nil && loose[i] }
	// A stream is live until it ends: dry (Exhausted) or cut by its floor.
	live := func(i int) bool { return !rows[i].Cut && !rows[i].Exhausted }
	absorb := func(i int, r pullResp) {
		row := &rows[i]
		bufs[i] = append(bufs[i], r.entries...)
		row.Bound = r.bound
		// No progress from a live stream would loop forever; a stream that
		// surrendered nothing (pre-filter) is done. Ended under a positive
		// floor, it was cut by it; at floor 0 it ran dry.
		if !r.live || r.raw == 0 {
			row.Exhausted = r.floor == 0
			row.Cut = r.floor != 0
		}
		row.Pulled += len(r.entries)
		row.Rounds++
		row.Latency += r.took
		if isLoose(i) && len(r.entries) > 0 {
			// Restore the merge's sorted-input precondition under the
			// global order; stable, so equal entries keep stream order.
			sort.SliceStable(bufs[i], func(a, b int) bool {
				return entryBefore(bufs[i][a], bufs[i][b])
			})
		}
	}
	for i, r := range first {
		absorb(i, r)
	}
	// The self entity consumes one slot wherever it ranks, so k+1 entries
	// from one shard always contain that shard's full possible contribution.
	// Pulled counts post-filter (owned) entries, so the cap argument counts
	// the same entries the merge sees even when foreign copies interleave.
	limit := k + 1
	batch := limit // a loose stream's want; it has no cap, so it doubles per round
	var merge time.Duration
	for {
		mergeStart := time.Now()
		merged, excluded := mergeEntries(bufs, k, exclude)
		merge += time.Since(mergeStart)
		floor := 0.0
		if len(merged) == k {
			floor = merged[k-1].Degree
		}
		var reqs []pullReq
		for i := range rows {
			if !live(i) || (!isLoose(i) && rows[i].Pulled >= limit) {
				continue
			}
			// Pull while the stream could still contribute: its bound
			// ties-or-beats the floor (ties can win on ordinal, so ≥, cut
			// on <).
			if rows[i].Bound >= floor {
				want := batch
				if !isLoose(i) {
					want = limit - rows[i].Pulled
				}
				reqs = append(reqs, pullReq{stream: i, want: want, floor: floor})
			}
		}
		if len(reqs) == 0 {
			// A stream that did not run dry was stopped by the coordinator
			// (threshold cut or the k+1 cap) or by its floor.
			for i := range rows {
				rows[i].Cut = !rows[i].Exhausted
			}
			return merged, excluded, merge, nil
		}
		resps, err := pull(reqs)
		if err != nil {
			return nil, 0, merge, err
		}
		if len(resps) != len(reqs) {
			return nil, 0, merge, fmt.Errorf("shard: pull returned %d responses for %d requests", len(resps), len(reqs))
		}
		for j, r := range reqs {
			resps[j].floor = r.floor
			absorb(r.stream, resps[j])
		}
		batch *= 2
	}
}

// gather finishes a fan-out: it checks the slot epoch, runs the
// threshold-pruned gather over f's streams under the query's pinned slot
// map — starting from the first rounds their opens pulled, each later
// round's pulls in parallel, one Stream.Pull per stream per round, so a
// whole round against remote shards costs one concurrent wave of round
// trips — fills each row's Checked, and closes every stream. Streams on
// shards sm has touched run loose. The QueryStats it returns come from the
// rows: Checked sums the streams' exact degree computations (the quantity
// the pruning saves versus a full local top-k on every shard), and PE and
// Pruned are recomputed over the cluster-wide candidate population with the
// single-DB formulas.
func (c *Cluster) gather(sm *SlotMap, f *fanout, k int, exclude string, start time.Time) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	defer f.close()
	if err := c.checkSlotEpoch(); err != nil {
		return nil, digitaltraces.QueryStats{}, err
	}
	loose := make([]bool, len(f.rows))
	for j, r := range f.rows {
		loose[j] = sm.touched[r.Shard]
	}
	c.rank(f.first)
	pull := func(reqs []pullReq) ([]pullResp, error) {
		resps := make([]pullResp, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for j, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pullStart := time.Now()
				b, err := f.streams[r.stream].Pull(r.want, r.floor)
				resps[j], errs[j] = owned(sm, f.rows[r.stream].Shard, b, time.Since(pullStart)), err
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		c.rank(resps)
		return resps, nil
	}
	out, excluded, merge, err := boundedGather(f.rows, k, exclude, loose, f.first, pull)
	if err != nil {
		return nil, digitaltraces.QueryStats{}, err
	}
	qs := digitaltraces.QueryStats{Shards: len(f.rows), Merge: merge}
	for j, st := range f.streams {
		f.rows[j].Checked = st.Checked()
		qs.Checked += f.rows[j].Checked
		qs.Pulled += f.rows[j].Pulled
	}
	// The home shard's example search scores the query entity itself (a
	// single DB never does); subtract what the merge skipped so
	// Checked/PE/Pruned stay comparable with single-DB numbers.
	qs.Checked -= excluded
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

// owned is one stream round as the gather sees it: b's matches filtered by
// sm's ownership (an entity mid-migration is physically on two shards —
// exactly the copy sm says is the owner survives, whether the other was
// migrated away or shipped in under a newer map), pulled from shard ord in
// took.
func owned(sm *SlotMap, ord int, b digitaltraces.Batch, took time.Duration) pullResp {
	es := make([]entry, 0, len(b.Matches))
	for _, m := range b.Matches {
		if sm.Owner(m.Entity) == ord {
			es = append(es, entry{m: m})
		}
	}
	return pullResp{entries: es, raw: len(b.Matches), bound: b.Bound, live: b.Live, took: took}
}

// rank resolves the global ordinals of a round's pulled matches, once per
// round, outside the pull goroutines.
func (c *Cluster) rank(resps []pullResp) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for j := range resps {
		for i := range resps[j].entries {
			resps[j].entries[i].rank = c.rankLocked(resps[j].entries[i].m.Entity)
		}
	}
}
