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
// together with an admissible upper bound on its remainder (Search.Bound),
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

// streamReport is one stream's share of a boundedGather, index-aligned with
// the streams: what it surrendered, how it ended, and what it cost.
type streamReport struct {
	pulled    int
	rounds    int
	cut       bool // stopped by the threshold, the k+1 cap or its floor
	exhausted bool // ran dry
	bound     float64
	latency   time.Duration
}

// gatherReport describes one boundedGather run: the per-stream breakdown,
// the coordinator's cumulative merge time (the cost not attributable to any
// stream — the satellite-2 attribution split), and the merged k-th degree
// the cuts fired against (0 when fewer than k results exist).
type gatherReport struct {
	streams []streamReport
	merge   time.Duration
	kth     float64
}

// boundedGather merges n incremental streams into the global top-k with
// threshold early termination, excluding the named entity. first, when not
// nil, is every stream's first round, already pulled (by the fused opens).
// pull must fulfill every request of a round (it may fan out in parallel)
// and return responses in request order. Returns the merged answer, the
// number of excluded entries skipped, and the per-stream gather report.
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
func boundedGather(n, k int, exclude string, loose []bool, first []pullResp, pull func([]pullReq) ([]pullResp, error)) ([]digitaltraces.Match, int, gatherReport, error) {
	bufs := make([][]entry, n)
	bounds := make([]float64, n)
	live := make([]bool, n)
	pulled := make([]int, n)
	rep := gatherReport{streams: make([]streamReport, n)}
	for i := range live {
		live[i] = true
		bounds[i] = 1 // degrees live in [0, 1]; an unpulled stream may hold anything
	}
	isLoose := func(i int) bool { return loose != nil && loose[i] }
	absorb := func(i int, r pullResp) {
		bufs[i] = append(bufs[i], r.entries...)
		bounds[i] = r.bound
		// No progress from a live stream would loop forever; a stream that
		// surrendered nothing (pre-filter) is done.
		live[i] = r.live && r.raw > 0
		// Ended under a positive floor, a stream was cut by it; at floor 0
		// it ran dry.
		rep.streams[i].exhausted = !live[i] && r.floor == 0
		pulled[i] += len(r.entries)
		rep.streams[i].rounds++
		rep.streams[i].latency += r.took
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
	// pulled counts post-filter (owned) entries, so the cap argument counts
	// the same entries the merge sees even when foreign copies interleave.
	limit := k + 1
	batch := limit // a loose stream's want; it has no cap, so it doubles per round
	for {
		mergeStart := time.Now()
		merged, excluded := mergeEntries(bufs, k, exclude)
		rep.merge += time.Since(mergeStart)
		floor := 0.0
		if len(merged) == k {
			floor = merged[k-1].Degree
		}
		var reqs []pullReq
		for i := 0; i < n; i++ {
			if !live[i] || (!isLoose(i) && pulled[i] >= limit) {
				continue
			}
			// Pull while the stream could still contribute: its bound
			// ties-or-beats the floor (ties can win on ordinal, so ≥, cut
			// on <).
			if bounds[i] >= floor {
				want := batch
				if !isLoose(i) {
					want = limit - pulled[i]
				}
				reqs = append(reqs, pullReq{stream: i, want: want, floor: floor})
			}
		}
		if len(reqs) == 0 {
			rep.kth = floor
			for i := 0; i < n; i++ {
				rep.streams[i].pulled = pulled[i]
				rep.streams[i].bound = bounds[i]
				// A stream that did not run dry was stopped by the coordinator
				// (threshold cut or the k+1 cap) or by its floor.
				rep.streams[i].cut = !rep.streams[i].exhausted
			}
			return merged, excluded, rep, nil
		}
		resps, err := pull(reqs)
		if err != nil {
			return nil, 0, rep, err
		}
		if len(resps) != len(reqs) {
			return nil, 0, rep, fmt.Errorf("shard: pull returned %d responses for %d requests", len(resps), len(reqs))
		}
		for j, r := range reqs {
			resps[j].floor = r.floor
			absorb(r.stream, resps[j])
		}
		batch *= 2
	}
}

// gatherSearches runs boundedGather over opened per-shard streams, starting
// from the first batches their opens returned and pulling each later round's
// requests in parallel — one Stream.Pull per stream per round, so a whole
// gather round against remote shards costs one concurrent wave of round
// trips — and resolving global ordinals for the pulled matches. streams
// must hold open streams and ords maps each to its shard ordinal; every
// pulled match is filtered by sm's ownership (an entity mid-migration is
// physically on two shards — exactly the copy sm says is the owner
// survives), and streams on sm-touched shards run loose. checked sums every
// stream's exact degree computations after termination (the quantity the
// pruning saves versus a full local top-k on every shard). The report's
// streams are aligned with streams.
func (c *Cluster) gatherSearches(sm *SlotMap, streams []opened, ords []int, k int, exclude string) (out []digitaltraces.Match, checked int, rep gatherReport, err error) {
	loose := make([]bool, len(streams))
	for si, o := range ords {
		loose[si] = sm.touched[o]
	}
	owned := func(i int, b Batch, took time.Duration) pullResp {
		es := make([]entry, 0, len(b.Matches))
		for _, m := range b.Matches {
			if sm.Owner(m.Entity) == ords[i] { // else a foreign copy: migrated away, or shipped here under a newer map
				es = append(es, entry{m: m})
			}
		}
		return pullResp{entries: es, raw: len(b.Matches), bound: b.Bound, live: b.Live, took: took}
	}
	// Resolve ordinals once per round, outside the pull goroutines.
	rank := func(resps []pullResp) {
		c.mu.RLock()
		defer c.mu.RUnlock()
		for j := range resps {
			for i := range resps[j].entries {
				resps[j].entries[i].rank = c.rankLocked(resps[j].entries[i].m.Entity)
			}
		}
	}
	first := make([]pullResp, len(streams))
	for i, o := range streams {
		first[i] = owned(i, o.first, o.took)
		first[i].floor = o.floor
	}
	rank(first)
	pull := func(reqs []pullReq) ([]pullResp, error) {
		resps := make([]pullResp, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for j, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pullStart := time.Now()
				b, err := streams[r.stream].st.Pull(r.want, r.floor)
				resps[j], errs[j] = owned(r.stream, b, time.Since(pullStart)), err
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		rank(resps)
		return resps, nil
	}
	out, excluded, rep, err := boundedGather(len(streams), k, exclude, loose, first, pull)
	if err != nil {
		return nil, 0, rep, err
	}
	for _, s := range streams {
		checked += s.st.Checked()
	}
	// The home shard's example search scores the query entity itself (a
	// single DB never does); subtract what the merge skipped so
	// Checked/PE/Pruned stay comparable with single-DB numbers.
	checked -= excluded
	return out, checked, rep, nil
}
