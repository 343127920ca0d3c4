package core

import (
	"fmt"
	"slices"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/trace"
)

// Result is one top-k answer: an entity and its exact association degree
// with the query entity.
type Result struct {
	Entity trace.EntityID
	Degree float64
}

// SearchStats reports the work a TopK call performed. PE follows
// Definition 5: (checked − k)/|E|, the fraction of extra entities whose
// exact degree had to be computed (lower is better). Pruned is the
// complementary fraction 1 − checked/|E| (higher is better), the quantity
// Figure 7.3 plots.
//
// A posting-driven search (Postings) accounts for every entity other than
// the query once — Checked + BoundSkipped + ZeroSkipped is their number — and
// runs no traversal, so NodesPopped, LeavesRead and CellsHashed read 0. The
// traversal (Algorithm 2, Tree.SignatureTopK) skips nothing it reaches: there
// both skip counts read 0.
type SearchStats struct {
	Checked      int     // entities whose exact degree was computed
	ZeroSkipped  int     // entities under none of the query's level-1 cells: degree exactly 0, never scored
	BoundSkipped int     // candidates never scored: their cell or size bound could not displace the k-th answer (or lay below the floor), or the search ended first
	NodesPopped  int     // candidate nodes dequeued
	LeavesRead   int     // leaf nodes whose entities were scanned
	CellsHashed  int     // query-cell hash evaluations
	PE           float64 // (Checked − k) / |E|, Definition 5
	Pruned       float64 // 1 − Checked/|E|
}

// Reached returns the entities the search arrived at, scored or not. On the
// traversal that is what the signatures alone failed to prune (and equals
// Checked); a posting-driven search reaches every entity other than the query.
func (s SearchStats) Reached() int { return s.Checked + s.ZeroSkipped + s.BoundSkipped }

// ranksBefore is the canonical answer order: degree descending, ties by
// ascending entity ID.
func ranksBefore(a, b Result) bool {
	if a.Degree != b.Degree {
		return a.Degree > b.Degree
	}
	return a.Entity < b.Entity
}

func ranksAfter(a, b Result) bool { return ranksBefore(b, a) }

// heapPush, heapFix and heapPop are container/heap's sift algorithms over a
// plain slice ordered by before (the root is the element before all others),
// so queue entries are never boxed into interfaces.
func heapPush[T any](h []T, x T, before func(a, b T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapFix restores the order after the root was replaced.
func heapFix[T any](h []T, before func(a, b T) bool) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func heapPop[T any](h []T, before func(a, b T) bool) (T, []T) {
	var zero T
	top, last := h[0], len(h)-1
	h[0], h[last] = h[last], zero
	h = h[:last]
	heapFix(h, before)
	return top, h
}

// kBest is the bounded k-best selection every exact search and the scan
// share: a heap of at most k results whose root is the current k-th answer
// (Result.minKey in Algorithm 2), so the threshold is O(1). Ties prefer
// keeping the smaller entity ID, for deterministic output.
type kBest struct {
	k int
	h []Result
}

// newKBest sizes the selection for k answers up front; k is caller-supplied,
// so very large values grow on demand instead.
func newKBest(k int) kBest { return kBest{k: k, h: make([]Result, 0, min(k, 1024))} }

func (b *kBest) full() bool { return len(b.h) == b.k }

// kth returns the worst kept result; valid once the selection is non-empty.
func (b *kBest) kth() Result { return b.h[0] }

func (b *kBest) offer(r Result) {
	if len(b.h) < b.k {
		b.h = heapPush(b.h, r, ranksAfter)
	} else if b.k > 0 && ranksBefore(r, b.h[0]) {
		b.h[0] = r
		heapFix(b.h, ranksAfter)
	}
}

// ranked returns the kept results in canonical order, consuming the
// selection.
func (b *kBest) ranked() []Result {
	slices.SortFunc(b.h, func(x, y Result) int {
		if ranksBefore(x, y) {
			return -1
		}
		return 1
	})
	return b.h
}

// frontier is the best-first state TopK, ApproxTopK and Iter share: the
// buckets of candidates the postings of the query's level-1 cells yield, in
// descending order of their Theorem-4 bound in the pooled scratch, with the
// rest of the population behind them at bound 0.
type frontier struct {
	p       *Postings
	q       *trace.Sequences
	measure adm.Measure
	qCounts []int
	n       int      // indexed entities other than the query
	pooled  *scratch // the query's candidates; nil once released
	pos     int      // the next bucket is pooled.rank[pos]
	limit   int      // stop scoring at this many exact degrees (0 = never)
	floor   float64  // nothing bounded below it is scored or returned (Iter.RaiseFloor)
	stats   SearchStats
}

// newFrontier validates the query and the measure against the index and
// queues the buckets of the query's candidates. A search that ends calls
// release.
func (p *Postings) newFrontier(q *trace.Sequences, measure adm.Measure) (*frontier, error) {
	if q.Levels() != p.m {
		return nil, fmt.Errorf("core: query has %d levels, index has %d", q.Levels(), p.m)
	}
	if measure.Levels() != p.m {
		return nil, fmt.Errorf("core: measure scores %d levels, index has %d", measure.Levels(), p.m)
	}
	f := &frontier{p: p, q: q, measure: measure, qCounts: make([]int, p.m), n: p.Len(), pooled: scratchPool.Get().(*scratch)}
	if p.Contains(q.Entity) {
		f.n-- // the query entity itself is never an answer
	}
	for l := 1; l <= p.m; l++ {
		f.qCounts[l-1] = q.Size(l)
	}
	if err := f.mark(); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// peek returns the largest bound among the queued buckets — 0 behind the
// last one, where only the entities no posting list named are left; ok is
// false once the search is released.
func (f *frontier) peek() (ub float64, ok bool) {
	sc := f.pooled
	if sc == nil {
		return 0, false
	}
	if f.pos < len(sc.rank) {
		return sc.buckets[sc.rank[f.pos]].ub, true
	}
	return 0, true
}

// visit dequeues the bucket peek reported: its candidates are scored exactly
// and handed to offer. A candidate that is sure to miss the answer (beaten) at
// its bucket's bound, or at the bound its own level sizes give once there is a
// cut to miss, is dropped as offer would drop it; a bucket the limit
// interrupts keeps its unscored rest queued.
func (f *frontier) visit(best *kBest, offer func(Result)) error {
	sc := f.pooled
	b := &sc.buckets[sc.rank[f.pos]]
	f.overlap(b.mask)
	for i, e := range sc.order[b.end-b.n : b.end] {
		if f.limit > 0 && f.stats.Checked >= f.limit {
			b.n -= i // the rest of the bucket stays queued
			return nil
		}
		if f.beaten(best, Result{e, b.ub}) {
			continue
		}
		if (f.floor > 0 || best != nil && best.full()) && f.beaten(best, Result{e, f.sizedBound(e)}) {
			continue
		}
		s := f.p.src.Get(e)
		if s == nil {
			return fmt.Errorf("core: indexed entity %d missing from source", e)
		}
		f.stats.Checked++
		f.stats.BoundSkipped--
		offer(Result{Entity: e, Degree: f.measure.Degree(f.q, s)})
	}
	f.pos++
	return nil
}

// beaten reports whether a candidate whose degree is at most r.Degree is sure
// to miss the answer: it cannot displace the k-th result of a full selection
// (best non-nil), ties included, or it lies below the floor. Floors only rise,
// so a candidate below one is never needed again.
func (f *frontier) beaten(best *kBest, r Result) bool {
	return best != nil && best.full() && !ranksBefore(r, best.kth()) || r.Degree < f.floor
}

// rest calls fn for every entity still queued, the unscored candidates and
// the entity table's entries no posting list named. Sound as a way to settle
// them without touching the sequence source only once peek reports 0:
// admissibility plus non-negative degrees then force every remaining degree
// to exactly 0.
func (f *frontier) rest(fn func(trace.EntityID)) {
	sc := f.pooled
	if f.pos < len(sc.rank) {
		b := sc.buckets[sc.rank[f.pos]]
		for _, e := range sc.order[b.end-b.n:] {
			fn(e)
		}
	}
	f.p.each(func(e trace.EntityID) {
		if e != f.q.Entity && sc.maskOf(e) == 0 {
			fn(e)
		}
	})
}

// finish fills the answer-relative statistics for a search that returned
// answers results.
func (f *frontier) finish(answers int) SearchStats {
	if f.n > 0 {
		f.stats.PE = max(0, float64(f.stats.Checked-answers)/float64(f.n))
		f.stats.Pruned = 1 - float64(f.stats.Checked)/float64(f.n)
	}
	return f.stats
}

// TopK answers a top-k query over digital traces (Definition 4) for the
// query sequences q, excluding the entity q.Entity itself, under the given
// association degree measure: exact degrees are computed in descending order
// of an admissible Theorem-4 upper bound, with early termination once k of
// them strictly dominate every remaining bound — Algorithm 2's rule. Results
// are ordered by descending degree (ties by ascending entity ID).
//
// The candidates are the entities posted under the query's level-1 cells,
// bucketed by which of them they occupy and scored bucket by bucket in bound
// order. That needs a measure that bounds an entity sharing no cell with the
// query by 0 — every entity no posting list names then has degree exactly 0
// — and any other measure is refused with an error naming it
// (Tree.SignatureTopK serves those).
//
// The answer is canonical: it is exactly the first k entries of the total
// order (degree descending, entity ID ascending) over the population.
// Termination is therefore strict — a bucket whose bound ties the current
// k-th degree may still hide an equal-degree entity with a smaller ID, so it
// must be examined. The one case where a tied bound need not force exact
// degree computations is 0: admissibility plus non-negative degrees mean
// every entity still queued has degree exactly 0, so those entities are
// offered to the selection directly. The canonical guarantee is what lets
// package shard reproduce this answer bit-identically from per-shard
// searches.
//
// TopK is read-only: it never mutates the index, the sequence source or the
// measure — all search state lives on this call's stack or in scratch no
// other call holds — so any number of TopK/ApproxTopK/NewIter/KNNJoin calls
// may run concurrently against one Postings.
func (p *Postings) TopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	res, stats, err := p.search(q, k, measure, ApproxOptions{})
	return res, stats.SearchStats, err
}

// search is the one loop behind TopK and ApproxTopK: score buckets in bound
// order until the k-th exact degree beats (1−ε) times every remaining bound,
// or the budget is spent.
func (p *Postings) search(q *trace.Sequences, k int, measure adm.Measure, opts ApproxOptions) ([]Result, ApproxStats, error) {
	var stats ApproxStats
	if k < 1 {
		return nil, stats, fmt.Errorf("core: k = %d < 1", k)
	}
	f, err := p.newFrontier(q, measure)
	if err != nil {
		return nil, stats, err
	}
	defer f.release()
	f.limit = opts.MaxChecked
	best := newKBest(k)
	remainingUB := 0.0
	for ub, ok := f.peek(); ok; ub, ok = f.peek() {
		// Early termination: the k-th best exact degree strictly beats every
		// remaining upper bound (relaxed by ε). Strict, not ≥: at equality the
		// bucket may hide an equal-degree entity with a smaller ID, which the
		// canonical tie order puts ahead of the current k-th.
		if best.full() && best.kth().Degree > (1-opts.Epsilon)*ub {
			remainingUB = ub
			break
		}
		if ub == 0 {
			// Everything still queued has degree exactly 0: offer it to the
			// selection without computing degrees. The answer stays exact.
			f.rest(func(e trace.EntityID) { best.offer(Result{Entity: e}) })
			break
		}
		if opts.MaxChecked > 0 && f.stats.Checked >= opts.MaxChecked {
			stats.BudgetExhausted = true
			remainingUB = ub
			break
		}
		if err := f.visit(&best, best.offer); err != nil {
			stats.SearchStats = f.stats
			return nil, stats, err
		}
	}
	out := best.ranked()
	stats.SearchStats = f.finish(len(out))
	// Achieved quality: smallest ε such that kth ≥ (1−ε)·remainingUB.
	if remainingUB > 0 && len(out) > 0 {
		if kth := out[len(out)-1].Degree; kth < remainingUB {
			stats.AchievedEpsilon = 1 - kth/remainingUB
		}
	}
	return out, stats, nil
}

// BruteForceTopK computes the exact top-k answers by scanning every entity
// in the source — the paper's ground-truth comparator (Chapter 4 opening).
// It shares the tie-breaking of TopK so results are directly comparable.
func BruteForceTopK(src SequenceSource, entities []trace.EntityID, q *trace.Sequences, k int, measure adm.Measure) []Result {
	best := newKBest(k)
	for _, e := range entities {
		if e == q.Entity {
			continue
		}
		if s := src.Get(e); s != nil {
			best.offer(Result{Entity: e, Degree: measure.Degree(q, s)})
		}
	}
	return best.ranked()
}
