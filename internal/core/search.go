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
type SearchStats struct {
	Checked      int     // entities whose exact degree was computed
	ZeroSkipped  int     // reached entities the cell index proved to have degree 0
	BoundSkipped int     // reached entities whose cell-index bound could not displace the k-th answer
	NodesPopped  int     // candidate nodes dequeued
	LeavesRead   int     // leaf nodes whose entities were scanned
	CellsHashed  int     // query-cell hash evaluations
	PE           float64 // (Checked − k) / |E|, Definition 5
	Pruned       float64 // 1 − Checked/|E|
}

// Reached returns the entities the traversal arrived at in a read leaf: what
// the signatures alone failed to prune, scored or skipped afterwards.
func (s SearchStats) Reached() int { return s.Checked + s.ZeroSkipped + s.BoundSkipped }

// candidate is a queue entry of Algorithm 2: a tree node together with the
// query's surviving base ST-cells (S_q minus the partial pruned sets of the
// node and all its ancestors) and the per-level surviving ancestor-cell
// counts that feed the upper bound.
type candidate struct {
	n         *node
	ub        float64
	surviving []trace.Cell // surviving base cells of the query
	counts    []int        // per level l (index l-1): |ancestors_l(surviving at the level-l ancestor node)|
	seq       int          // tie-break: FIFO among equal bounds
}

// boundBefore orders the candidate queue: larger upper bound first, FIFO
// among ties.
func boundBefore(a, b *candidate) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	return a.seq < b.seq
}

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

// frontier is the best-first traversal state Algorithm 2 and its variants
// (TopK, ApproxTopK, Iter) share: the queue of unexpanded nodes ordered by
// upper bound, and the per-query scratch their expansion reuses.
type frontier struct {
	t       *Tree
	q       *trace.Sequences
	measure adm.Measure
	qCounts []int
	cands   []*candidate // max-heap on upper bound
	seq     int
	scratch []trace.Cell // expand's ancestor-cell buffer
	pooled  *scratch     // where cands and scratch live, and the query's marks; nil once released
	marked  bool         // the level-1 cell index applies and pooled holds the query's view of it
	stats   SearchStats
}

// newFrontier validates the query and the measure against the index, marks
// the entities the cell index lets the query reach, and seeds the queue with
// the root candidate. A search that ends calls release.
func (t *Tree) newFrontier(q *trace.Sequences, measure adm.Measure) (*frontier, error) {
	if q.Levels() != t.m {
		return nil, fmt.Errorf("core: query has %d levels, index has %d", q.Levels(), t.m)
	}
	if measure.Levels() != t.m {
		return nil, fmt.Errorf("core: measure scores %d levels, index has %d", measure.Levels(), t.m)
	}
	sc := scratchPool.Get().(*scratch)
	f := &frontier{t: t, q: q, measure: measure, qCounts: make([]int, t.m), seq: 1, pooled: sc, scratch: sc.anc}
	for l := 1; l <= t.m; l++ {
		f.qCounts[l-1] = q.Size(l)
	}
	f.cands = append(sc.cands, &candidate{
		n:         t.root,
		ub:        measure.UpperBound(f.qCounts, f.qCounts),
		surviving: q.Base(),
		counts:    f.qCounts,
	})
	f.marked = f.mark()
	return f, nil
}

// pop dequeues the candidate with the largest upper bound.
func (f *frontier) pop() *candidate {
	var c *candidate
	c, f.cands = heapPop(f.cands, boundBefore)
	f.stats.NodesPopped++
	return c
}

// visit processes a popped candidate: an internal node's children are
// queued; a leaf's entities are scored exactly and handed to offer, except
// those the cell index settles first. An entity under none of the query's
// level-1 cells has degree exactly 0 and is offered as such; with a selection
// to fill (best non-nil), one that could not displace the k-th answer even at
// its cell-index bound, ties included, is dropped as offer would drop it.
func (f *frontier) visit(c *candidate, best *kBest, offer func(Result)) error {
	if c.n.level < f.t.m {
		for _, child := range c.n.children {
			cc := f.expand(c, child)
			cc.seq = f.seq
			f.seq++
			f.cands = heapPush(f.cands, cc, boundBefore)
		}
		return nil
	}
	f.stats.LeavesRead++
	for _, e := range c.n.entities {
		if e == f.q.Entity {
			continue
		}
		if f.marked && uint(e) < uint(len(f.pooled.mask)) {
			mask := f.pooled.mask[e]
			if mask == 0 {
				f.stats.ZeroSkipped++
				offer(Result{Entity: e})
				continue
			}
			if best != nil && best.full() && !ranksBefore(Result{e, f.bound(mask)}, best.kth()) {
				f.stats.BoundSkipped++
				continue
			}
		}
		s := f.t.src.Get(e)
		if s == nil {
			return fmt.Errorf("core: indexed entity %d missing from source", e)
		}
		f.stats.Checked++
		offer(Result{Entity: e, Degree: f.measure.Degree(f.q, s)})
	}
	return nil
}

// offerZeros feeds every entity under the popped candidate c and behind the
// queue into offer with degree 0, without touching the sequence source.
// Sound only when c's upper bound is 0: admissibility plus non-negative
// degrees then force every remaining degree to exactly 0.
func (f *frontier) offerZeros(c *candidate, offer func(Result)) {
	zero := func(e trace.EntityID) { offer(Result{Entity: e}) }
	subtreeEntities(c.n, f.q.Entity, zero)
	for _, rc := range f.cands {
		subtreeEntities(rc.n, f.q.Entity, zero)
	}
}

// finish fills the answer-relative statistics for a search that returned
// answers results.
func (f *frontier) finish(answers int) SearchStats {
	n := f.t.Len()
	if f.t.Contains(f.q.Entity) {
		n-- // the query entity itself is never an answer
	}
	if n > 0 {
		f.stats.PE = max(0, float64(f.stats.Checked-answers)/float64(n))
		f.stats.Pruned = 1 - float64(f.stats.Checked)/float64(n)
	}
	return f.stats
}

// TopK answers a top-k query over digital traces (Definition 4) for the
// query sequences q, excluding the entity q.Entity itself, under the given
// association degree measure. It implements Algorithm 2: best-first search
// over MinSigTree nodes ordered by upper bound, with early termination once
// k exact degrees strictly dominate every remaining bound. Results are
// ordered by descending degree (ties by ascending entity ID).
//
// The answer is canonical: it is exactly the first k entries of the total
// order (degree descending, entity ID ascending) over the population,
// independent of tree shape. Termination is therefore strict — a node whose
// bound ties the current k-th degree may still hide an equal-degree entity
// with a smaller ID, so it must be examined. The one case where a tied
// bound need not force exact degree computations is 0: admissibility plus
// non-negative degrees mean every entity under a 0-bound node has degree
// exactly 0, so those entities are offered to the selection directly. The
// canonical guarantee is what lets package shard reproduce this answer
// bit-identically from per-shard searches over differently-shaped trees.
//
// The returned answers are exact for any admissible measure: pruning relies
// only on Theorems 2-4, never on hash quality.
//
// TopK is read-only: it never mutates the tree, the hasher, the sequence
// source, or the measure — all search state (candidate heap, result heap,
// surviving-cell sets, ancestor counts) lives on this call's stack. Any
// number of TopK/ApproxTopK/KNNJoin calls may therefore run concurrently
// against the same tree, provided no Insert/Remove/Update/Rebuild runs at
// the same time; callers who interleave maintenance with queries must
// provide that exclusion themselves (the public DB facade does, by only
// ever querying immutable snapshot trees and applying maintenance to a
// Clone that is atomically swapped in afterwards).
func (t *Tree) TopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	if k < 1 {
		return nil, SearchStats{}, fmt.Errorf("core: k = %d < 1", k)
	}
	f, err := t.newFrontier(q, measure)
	if err != nil {
		return nil, SearchStats{}, err
	}
	defer f.release()
	best := newKBest(k)
	for len(f.cands) > 0 {
		c := f.pop()
		// Early termination: the k-th best exact degree strictly beats every
		// remaining upper bound. Strict, not ≥: at equality the node may hide
		// an equal-degree entity with a smaller ID, which the canonical tie
		// order puts ahead of the current k-th.
		if best.full() && best.kth().Degree > c.ub {
			break
		}
		if c.ub == 0 {
			// Every entity under this candidate — and, by heap order, under
			// all remaining ones — has degree exactly 0. Offer them to the
			// selection without computing degrees.
			f.offerZeros(c, best.offer)
			break
		}
		if err := f.visit(c, &best, best.offer); err != nil {
			return nil, f.stats, err
		}
	}
	out := best.ranked()
	return out, f.finish(len(out)), nil
}

// expand builds the candidate for a child node: filter the surviving query
// cells through the child's single-coordinate signature (Theorem 2 via the
// partial pruned set of Section 5.1), then refresh the per-level surviving
// ancestor counts for the child's level and below. Counts for coarser
// levels are inherited — they were fixed by the ancestors at those levels
// (Theorem 3 keeps the bound monotone). A child that prunes nothing shares
// its parent's cells and counts.
func (f *frontier) expand(parent *candidate, child *node) *candidate {
	t := f.t
	fn := int(child.routing)
	surviving := parent.surviving
	kept := 0
	for i, s := range parent.surviving {
		var keep bool
		if child.fullSig != nil {
			// Full-signature mode (Section 5.1 ablation): prune with the
			// complete pruned set PS_N across all nh coordinates.
			keep = t.fullSurvives(child, s, &f.stats)
		} else {
			f.stats.CellsHashed++
			// h_fn(s) < SIG_N[fn] would put s in the partial pruned set:
			// no entity under child can be present at s (Theorem 2).
			keep = t.hasher.Hash(fn, s) >= child.value
		}
		switch {
		case keep && kept < i:
			surviving[kept] = s
			kept++
		case keep:
			kept++
		case kept == i:
			// First pruned cell: stop sharing the parent's slice.
			surviving = make([]trace.Cell, len(parent.surviving)-1)
			copy(surviving, parent.surviving[:i])
		}
	}
	cc := &candidate{n: child, surviving: surviving[:kept], counts: parent.counts}
	if kept < len(parent.surviving) {
		cc.counts = make([]int, t.m)
		copy(cc.counts, parent.counts[:child.level-1])
		cc.counts[t.m-1] = kept
		// Theorem 2 exclusions propagate to every level ≥ the node's own:
		// recount the distinct ancestor cells of the survivors, coarsening
		// one level at a time (the level-l ancestors are the parents of the
		// level-(l+1) ancestors).
		anc := append(f.scratch[:0], cc.surviving...)
		for l := t.m - 1; l >= child.level; l-- {
			for i, c := range anc {
				anc[i] = trace.MakeCell(c.Time(), t.ix.Parent(c.Unit()))
			}
			slices.Sort(anc)
			anc = slices.Compact(anc)
			cc.counts[l-1] = len(anc)
		}
		f.scratch = anc
	}
	cc.ub = f.measure.UpperBound(cc.counts, f.qCounts)
	return cc
}

// subtreeEntities calls fn for every entity indexed under n, except skip.
// Visit order is unspecified: callers feed order-insensitive selections.
func subtreeEntities(n *node, skip trace.EntityID, fn func(trace.EntityID)) {
	if n.entities != nil {
		for _, e := range n.entities {
			if e != skip {
				fn(e)
			}
		}
		return
	}
	for _, c := range n.children {
		subtreeEntities(c, skip, fn)
	}
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
