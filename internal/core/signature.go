package core

import (
	"fmt"
	"slices"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/trace"
)

// Hasher is the hash family a MinSigTree is built over: nh functions over
// ST-cells at any sp-index level, satisfying the hierarchical constraint
// h_u(t·parent) = min over children c of h_u(t·c) (Section 4.2.1).
// internal/sighash implements it — Family, and TableHasher for the worked
// examples; the served index never hashes, so this package states the
// contract instead of importing the family.
type Hasher interface {
	// NumFuncs returns nh, the number of hash functions.
	NumFuncs() int
	// Hash returns h_fn(c) for fn in [0, NumFuncs()).
	Hash(fn int, c trace.Cell) uint64
}

// levelSig is an entity's digest at one level: the routing index (the argmax
// position u of its level signature, ties to the smallest u) and the
// signature value there — all the tree keeps per entity and level, the
// paper's "materialize SIG_N[u] only" (Section 4.2.2).
type levelSig struct {
	routing uint32
	value   uint64
}

// minsInto sets mins[u], for each of the family's functions, to the minimum
// of h_u over cells — the full signature of a cell set — through the family's
// own tuned loop when it has one (sighash.Family.MinsInto).
func minsInto(h Hasher, cells []trace.Cell, mins []uint64) {
	if f, ok := h.(interface{ MinsInto([]trace.Cell, []uint64) }); ok {
		f.MinsInto(cells, mins)
		return
	}
	for u := range mins {
		mins[u] = ^uint64(0)
	}
	for _, c := range cells {
		for u := range mins {
			if v := h.Hash(u, c); v < mins[u] {
				mins[u] = v
			}
		}
	}
}

// argmax reduces a full signature to its digest.
func argmax(full []uint64) levelSig {
	best := 0
	for u := 1; u < len(full); u++ {
		if full[u] > full[best] {
			best = u
		}
	}
	return levelSig{routing: uint32(best), value: full[best]}
}

// signature computes an entity's per-level digests:
// sig^l[u] = min{ h_u(s) | s ∈ seq^l } for each level l and function u,
// reduced to its argmax (sighash.Signature).
func signature(h Hasher, s *trace.Sequences) []levelSig {
	out := make([]levelSig, s.Levels())
	mins := make([]uint64, h.NumFuncs())
	for l := range out {
		minsInto(h, s.At(l+1), mins)
		out[l] = argmax(mins)
	}
	return out
}

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

// traversal is Algorithm 2's state: the query, the measure, and the work
// done so far.
type traversal struct {
	t       *Tree
	q       *trace.Sequences
	measure adm.Measure
	qCounts []int
	anc     []trace.Cell // expand's ancestor-cell buffer
	stats   SearchStats
}

// SignatureTopK is Algorithm 2: best-first search over MinSigTree nodes
// ordered by the upper bound their signatures yield, scoring the entities of
// every leaf it reaches, until the k-th exact degree strictly beats every
// remaining bound. The answer is TopK's, bit for bit — it is canonical, the
// first k entries of the total order (degree descending, entity ID ascending)
// — for any admissible measure, including one whose zero-overlap bound is not
// 0, which the postings cannot serve. It keeps the paper's algorithm and its
// pruning (Reached) directly testable and measurable.
func (t *Tree) SignatureTopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	if k < 1 {
		return nil, SearchStats{}, fmt.Errorf("core: k = %d < 1", k)
	}
	if q.Levels() != t.m {
		return nil, SearchStats{}, fmt.Errorf("core: query has %d levels, index has %d", q.Levels(), t.m)
	}
	if measure.Levels() != t.m {
		return nil, SearchStats{}, fmt.Errorf("core: measure scores %d levels, index has %d", measure.Levels(), t.m)
	}
	tr, root := t.newTraversal(q, measure)
	queue := []*candidate{root}
	seq := 1
	best := newKBest(k, nil)
	for len(queue) > 0 {
		ub := queue[0].ub
		// Early termination, strict: at equality the node may hide an
		// equal-degree entity with a smaller ID, which the canonical tie
		// order puts ahead of the current k-th.
		if best.full() && best.kth().Degree > ub {
			break
		}
		if ub == 0 {
			// Everything still queued has degree exactly 0 (admissible bounds,
			// non-negative degrees): offer it without computing degrees.
			for _, c := range queue {
				subtreeEntities(c.n, q.Entity, func(e trace.EntityID) { best.offer(Result{Entity: e}) })
			}
			break
		}
		var c *candidate
		c, queue = heapPop(queue, boundBefore)
		tr.stats.NodesPopped++
		if c.n.level < t.m {
			for _, child := range c.n.children {
				cc := tr.expand(c, child)
				cc.seq = seq
				seq++
				queue = heapPush(queue, cc, boundBefore)
			}
			continue
		}
		tr.stats.LeavesRead++
		for _, e := range c.n.entities {
			if e == q.Entity {
				continue
			}
			s := t.post.src.Get(e)
			if s == nil {
				return nil, tr.stats, fmt.Errorf("core: indexed entity %d missing from source", e)
			}
			tr.stats.Checked++
			best.offer(Result{Entity: e, Degree: measure.Degree(q, s)})
		}
	}
	out := best.ranked()
	n := t.Len()
	if t.Contains(q.Entity) {
		n--
	}
	if n > 0 {
		tr.stats.PE = max(0, float64(tr.stats.Checked-len(out))/float64(n))
		tr.stats.Pruned = 1 - float64(tr.stats.Checked)/float64(n)
	}
	return out, tr.stats, nil
}

// newTraversal starts Algorithm 2 for the query: its state, and the root
// candidate with every query cell surviving.
func (t *Tree) newTraversal(q *trace.Sequences, measure adm.Measure) (*traversal, *candidate) {
	tr := &traversal{t: t, q: q, measure: measure, qCounts: make([]int, t.m)}
	for l := 1; l <= t.m; l++ {
		tr.qCounts[l-1] = q.Size(l)
	}
	return tr, &candidate{n: t.root, ub: measure.UpperBound(tr.qCounts, tr.qCounts, nil), surviving: q.Base(), counts: tr.qCounts}
}

// expand builds the candidate for a child node: filter the surviving query
// cells through the child's single-coordinate signature (Theorem 2 via the
// partial pruned set of Section 5.1), then refresh the per-level surviving
// ancestor counts for the child's level and below. Counts for coarser
// levels are inherited — they were fixed by the ancestors at those levels
// (Theorem 3 keeps the bound monotone). A child that prunes nothing shares
// its parent's cells and counts.
func (tr *traversal) expand(parent *candidate, child *node) *candidate {
	t := tr.t
	fn := int(child.routing)
	surviving := parent.surviving
	kept := 0
	for i, s := range parent.surviving {
		var keep bool
		if child.fullSig != nil {
			// Full-signature mode (Section 5.1 ablation): prune with the
			// complete pruned set PS_N across all nh coordinates.
			keep = t.fullSurvives(child, s, &tr.stats)
		} else {
			tr.stats.CellsHashed++
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
		anc := append(tr.anc[:0], cc.surviving...)
		for l := t.m - 1; l >= child.level; l-- {
			for i, c := range anc {
				anc[i] = trace.MakeCell(c.Time(), t.ix.Parent(c.Unit()))
			}
			slices.Sort(anc)
			anc = slices.Compact(anc)
			cc.counts[l-1] = len(anc)
		}
		tr.anc = anc
	}
	cc.ub = tr.measure.UpperBound(cc.counts, tr.qCounts, nil)
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
