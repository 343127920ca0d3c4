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
// A posting-driven search accounts for every entity other than the query
// once — Checked + BoundSkipped + ZeroSkipped is their number — and runs no
// traversal, so NodesPopped, LeavesRead and CellsHashed read 0. The traversal
// (Algorithm 2) skips nothing it reaches: there both skip counts read 0.
type SearchStats struct {
	Checked      int     // entities whose exact degree was computed
	ZeroSkipped  int     // entities under none of the query's level-1 cells: degree exactly 0, never scored
	BoundSkipped int     // candidates never scored: their cell bound could not displace the k-th answer, or the search ended first
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

// frontier is the best-first state TopK, ApproxTopK and Iter share: groups of
// entities queued in descending order of an admissible upper bound on their
// degrees. Where the level-1 cell index applies (marked) the groups are the
// buckets of candidates its postings yield, already in order in the pooled
// scratch, with the rest of the population behind them at bound 0; otherwise
// they are the nodes of Algorithm 2's traversal, in a heap that grows as
// nodes are expanded.
type frontier struct {
	t       *Tree
	q       *trace.Sequences
	measure adm.Measure
	qCounts []int
	n       int          // indexed entities other than the query
	cands   []*candidate // traversal: max-heap on upper bound
	seq     int
	scratch []trace.Cell // expand's ancestor-cell buffer
	pooled  *scratch     // where cands and scratch live, and the query's candidates; nil once released
	marked  bool         // the search is posting-driven
	pos     int          // posting-driven: the next bucket is pooled.rank[pos]
	limit   int          // posting-driven: stop scoring at this many exact degrees (0 = never)
	stats   SearchStats
}

// newFrontier validates the query and the measure against the index and
// queues the search: the buckets of the cell index's candidates where postings
// asks for them and the index applies, the root candidate otherwise. A search
// that ends calls release.
func (t *Tree) newFrontier(q *trace.Sequences, measure adm.Measure, postings bool) (*frontier, error) {
	if q.Levels() != t.m {
		return nil, fmt.Errorf("core: query has %d levels, index has %d", q.Levels(), t.m)
	}
	if measure.Levels() != t.m {
		return nil, fmt.Errorf("core: measure scores %d levels, index has %d", measure.Levels(), t.m)
	}
	sc := scratchPool.Get().(*scratch)
	f := &frontier{t: t, q: q, measure: measure, qCounts: make([]int, t.m), n: t.Len(), seq: 1, pooled: sc, cands: sc.cands, scratch: sc.anc}
	if t.Contains(q.Entity) {
		f.n-- // the query entity itself is never an answer
	}
	for l := 1; l <= t.m; l++ {
		f.qCounts[l-1] = q.Size(l)
	}
	if f.marked = postings && f.mark(); !f.marked {
		f.cands = append(f.cands, &candidate{
			n:         t.root,
			ub:        measure.UpperBound(f.qCounts, f.qCounts),
			surviving: q.Base(),
			counts:    f.qCounts,
		})
	}
	return f, nil
}

// peek returns the largest upper bound among the queued groups; ok is false
// once nothing is queued.
func (f *frontier) peek() (ub float64, ok bool) {
	if f.marked {
		if sc := f.pooled; f.pos < len(sc.rank) {
			return sc.buckets[sc.rank[f.pos]].ub, true
		}
		return 0, f.pos == len(f.pooled.rank) // behind the last bucket: the entities no posting list named
	}
	if len(f.cands) == 0 {
		return 0, false
	}
	return f.cands[0].ub, true
}

// visit dequeues the group peek reported. A bucket's candidates, and a leaf's
// entities, are scored exactly and handed to offer; an internal node's
// children are queued. With a selection to fill (best non-nil), a candidate
// that could not displace the k-th answer even at its bucket's bound, ties
// included, is dropped as offer would drop it; a bucket the limit interrupts
// keeps its unscored rest queued.
func (f *frontier) visit(best *kBest, offer func(Result)) error {
	if f.marked {
		sc := f.pooled
		b := &sc.buckets[sc.rank[f.pos]]
		for i, e := range sc.order[b.end-b.n : b.end] {
			if f.limit > 0 && f.stats.Checked >= f.limit {
				b.n -= i // the rest of the bucket stays queued
				return nil
			}
			if best != nil && best.full() && !ranksBefore(Result{e, b.ub}, best.kth()) {
				continue
			}
			if err := f.score(e, offer); err != nil {
				return err
			}
			f.stats.BoundSkipped--
		}
		f.pos++
		return nil
	}
	var c *candidate
	c, f.cands = heapPop(f.cands, boundBefore)
	f.stats.NodesPopped++
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
		if e != f.q.Entity {
			if err := f.score(e, offer); err != nil {
				return err
			}
		}
	}
	return nil
}

// score computes e's exact degree and offers it.
func (f *frontier) score(e trace.EntityID, offer func(Result)) error {
	s := f.t.src.Get(e)
	if s == nil {
		return fmt.Errorf("core: indexed entity %d missing from source", e)
	}
	f.stats.Checked++
	offer(Result{Entity: e, Degree: f.measure.Degree(f.q, s)})
	return nil
}

// rest calls fn for every entity still queued, in no particular order. Sound
// as a way to settle them without touching the sequence source only once peek
// reports 0: admissibility plus non-negative degrees then force every
// remaining degree to exactly 0.
func (f *frontier) rest(fn func(trace.EntityID)) {
	if f.marked {
		sc := f.pooled
		if f.pos < len(sc.rank) {
			b := sc.buckets[sc.rank[f.pos]]
			for _, e := range sc.order[b.end-b.n:] {
				fn(e)
			}
		}
		subtreeEntities(f.t.root, f.q.Entity, func(e trace.EntityID) {
			if sc.maskOf(e) == 0 {
				fn(e)
			}
		})
		return
	}
	for _, c := range f.cands {
		subtreeEntities(c.n, f.q.Entity, fn)
	}
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
// Where the bounds come from is decided by what the search observes, never by
// the caller. When the measure bounds an entity that shares no cell with the
// query by 0, the search is posting-driven: the candidates are the entities
// posted under the query's level-1 cells, bucketed by which of them they
// occupy and scored bucket by bucket in bound order; the tree is not
// traversed. Otherwise — a measure whose zero-overlap bound is not 0 — it is
// Algorithm 2 itself, SignatureTopK.
//
// The answer is canonical: it is exactly the first k entries of the total
// order (degree descending, entity ID ascending) over the population,
// independent of tree shape. Termination is therefore strict — a bucket or
// node whose bound ties the current k-th degree may still hide an equal-degree
// entity with a smaller ID, so it must be examined. The one case where a tied
// bound need not force exact degree computations is 0: admissibility plus
// non-negative degrees mean every entity still queued has degree exactly 0,
// so those entities are offered to the selection directly. The canonical
// guarantee is what lets package shard reproduce this answer bit-identically
// from per-shard searches over differently-shaped trees.
//
// The returned answers are exact for any admissible measure: pruning relies
// only on Theorems 2-4, never on hash quality.
//
// TopK is read-only: it never mutates the tree, the hasher, the sequence
// source, or the measure — all search state lives on this call's stack or in
// scratch no other call holds. Any number of TopK/ApproxTopK/KNNJoin calls
// may therefore run concurrently against the same tree, provided no
// Insert/Remove/Update/Rebuild runs at the same time; callers who interleave
// maintenance with queries must provide that exclusion themselves (the public
// DB facade does, by only ever querying immutable snapshot trees and applying
// maintenance to a Clone that is atomically swapped in afterwards).
func (t *Tree) TopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	res, stats, err := t.search(q, k, measure, ApproxOptions{}, true)
	return res, stats.SearchStats, err
}

// SignatureTopK is TopK by Algorithm 2 alone: best-first search over
// MinSigTree nodes ordered by the upper bound their signatures yield, whatever
// the cell index could have contributed. It is the search TopK runs on inputs
// the index cannot serve, under its own name so that the paper's algorithm
// and its pruning (Reached) stay directly testable and measurable.
func (t *Tree) SignatureTopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	res, stats, err := t.search(q, k, measure, ApproxOptions{}, false)
	return res, stats.SearchStats, err
}

// search is the one loop behind TopK, SignatureTopK and ApproxTopK: score
// groups in bound order until the k-th exact degree beats (1−ε) times every
// remaining bound, or the budget is spent.
func (t *Tree) search(q *trace.Sequences, k int, measure adm.Measure, opts ApproxOptions, postings bool) ([]Result, ApproxStats, error) {
	var stats ApproxStats
	if k < 1 {
		return nil, stats, fmt.Errorf("core: k = %d < 1", k)
	}
	f, err := t.newFrontier(q, measure, postings)
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
		// group may hide an equal-degree entity with a smaller ID, which the
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
