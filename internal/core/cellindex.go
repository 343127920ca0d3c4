package core

import (
	"maps"
	"math/bits"
	"slices"
	"sync"

	"digitaltraces/internal/trace"
)

// cellIndex maps each level-1 cell to the entities occupying it — an exact
// pre-filter under the MinSigTree's leaf pass (DESIGN.md, "Level-1 cell
// index").
//
// Invariant: for every indexed entity e and every level-1 cell c of its
// current sequences, e is in postings(c). Pairs are only ever added (Remove
// and Update leave the old ones behind): a stale pair costs one computed
// degree, a missing pair would be a wrong answer. Build, Clone and
// ReadSnapshot seal from the sequences, which drops the stale pairs.
//
// By the Section 4.1 derivation every shared level-l cell has its level-1
// ancestor shared. So an entity in none of the postings of a query's level-1
// cells shares no cell with it at any level, and one in the postings of the
// level-1 cells I only can share, per level, at most the query's cells below
// I — an overlap vector Measure.UpperBound turns into a Theorem-4 bound.
type cellIndex struct {
	// The sealed base, in CSR form and immutable, so derived generations
	// share it: keys[i]'s postings are posts[offs[i]:offs[i+1]], ascending.
	keys  []trace.Cell
	offs  []uint32
	posts []trace.EntityID
	// added holds the pairs added since; private to one tree generation.
	added      map[trace.Cell][]trace.EntityID
	addedPairs int
	maxID      trace.EntityID // largest entity ID posted; -1 when none
}

// seal builds an index whose base holds the pairs each yields — the same ones
// on both of its calls: one pass counts the postings per cell, one fills them.
func seal(each func(post func(trace.Cell, trace.EntityID))) *cellIndex {
	ci := &cellIndex{added: map[trace.Cell][]trace.EntityID{}, maxID: -1}
	slot := make(map[trace.Cell]uint32) // postings per cell, then the cell's fill cursor
	each(func(c trace.Cell, e trace.EntityID) {
		slot[c]++
		ci.maxID = max(ci.maxID, e)
	})
	ci.keys = slices.Sorted(maps.Keys(slot))
	ci.offs = make([]uint32, len(ci.keys)+1)
	for i, c := range ci.keys {
		ci.offs[i+1] = ci.offs[i] + slot[c]
		slot[c] = ci.offs[i]
	}
	ci.posts = make([]trace.EntityID, ci.offs[len(ci.keys)])
	each(func(c trace.Cell, e trace.EntityID) {
		ci.posts[slot[c]] = e
		slot[c]++
	})
	for i := range ci.keys {
		slices.Sort(ci.posts[ci.offs[i]:ci.offs[i+1]])
	}
	return ci
}

// sealCells builds the index of exactly the level-1 cells of the given
// entities' sequences in src (an entity src does not hold has none).
func sealCells(src SequenceSource, entities []trace.EntityID) *cellIndex {
	return seal(func(post func(trace.Cell, trace.EntityID)) {
		for _, e := range entities {
			if s := src.Get(e); s != nil {
				for _, c := range s.At(1) {
					post(c, e)
				}
			}
		}
	})
}

// postings returns the entities posted under c: the sealed list and the ones
// added since.
func (ci *cellIndex) postings(c trace.Cell) (sealed, added []trace.EntityID) {
	if i, ok := slices.BinarySearch(ci.keys, c); ok {
		sealed = ci.posts[ci.offs[i]:ci.offs[i+1]]
	}
	return sealed, ci.added[c]
}

// add posts e under each of its level-1 cells, skipping pairs already there.
func (ci *cellIndex) add(e trace.EntityID, cells []trace.Cell) {
	for _, c := range cells {
		sealed, added := ci.postings(c)
		if _, ok := slices.BinarySearch(sealed, e); ok || slices.Contains(added, e) {
			continue
		}
		ci.added[c] = append(added, e)
		ci.addedPairs++
	}
	ci.maxID = max(ci.maxID, e)
}

// derive returns an independently writable index over the same pairs for the
// next tree generation: the base is shared, the added pairs are copied — or,
// once they reach the compaction threshold, both fold into a fresh base, an
// O(pairs) step that amortizes to O(1) per added pair.
func (ci *cellIndex) derive() *cellIndex {
	if trace.OverlayNeedsCompaction(ci.addedPairs, len(ci.posts)) {
		return seal(func(post func(trace.Cell, trace.EntityID)) {
			for i, c := range ci.keys {
				for _, e := range ci.posts[ci.offs[i]:ci.offs[i+1]] {
					post(c, e)
				}
			}
			for c, es := range ci.added {
				for _, e := range es {
					post(c, e)
				}
			}
		})
	}
	d := *ci
	d.added = make(map[trace.Cell][]trace.EntityID, len(ci.added))
	for c, es := range ci.added {
		d.added[c] = slices.Clip(es) // an append must not write a list another generation reads
	}
	return &d
}

// scratch is the state one search recycles through scratchPool: the
// traversal's buffers and the query's view of the cell index.
type scratch struct {
	cands []*candidate // the candidate heap's backing array
	anc   []trace.Cell // expand's ancestor-cell buffer
	// mask[e] has bit min(i, 63) set when e is posted under the query's i-th
	// level-1 cell; entities the table does not reach are always scored. All
	// zero while pooled: release clears exactly the bits mark set.
	mask []uint64
	// under[i*m+l-1] counts the query's level-l cells below its i-th level-1
	// cell (bit 63 stands for every cell from the 64th on).
	under []int
	x     []int              // bound's overlap vector
	memo  map[uint64]float64 // bound per distinct mask
}

var scratchPool = sync.Pool{New: func() any { return &scratch{memo: map[uint64]float64{}} }}

// mark fills the scratch's view of the cell index for the query and reports
// whether the index applies: the tree has one, and the measure bounds an
// entity with no overlap by 0 — what both skips rest on, and offerZeros too.
func (f *frontier) mark() bool {
	sc, ci, m := f.pooled, f.t.cells, f.t.m
	sc.x = append(sc.x[:0], make([]int, m)...)
	if ci == nil || f.measure.UpperBound(sc.x, f.qCounts) != 0 {
		return false
	}
	// The table stays within a constant factor of the population whatever
	// IDs arrive; negative IDs and IDs past it are scored.
	n := min(int(ci.maxID)+1, 2*f.t.Len()+64)
	if cap(sc.mask) < n {
		sc.mask = make([]uint64, n)
	}
	sc.mask = sc.mask[:n]
	f.stamp(true)
	roots := f.q.At(1)
	sc.under = append(sc.under[:0], make([]int, min(len(roots), 64)*m)...)
	for l := 1; l <= m; l++ {
		for _, c := range f.q.At(l) {
			i, _ := slices.BinarySearch(roots, trace.MakeCell(c.Time(), f.t.ix.Root(c.Unit())))
			sc.under[min(i, 63)*m+l-1]++
		}
	}
	return true
}

// stamp sets (or clears again) the bit of each of the query's level-1 cells
// in the mask of every in-table entity posted under it.
func (f *frontier) stamp(set bool) {
	mask := f.pooled.mask
	for i, c := range f.q.At(1) {
		bit := uint64(1) << min(i, 63)
		sealed, added := f.t.cells.postings(c)
		for _, list := range [2][]trace.EntityID{sealed, added} {
			for _, e := range list {
				if uint(e) >= uint(len(mask)) {
					continue
				}
				if set {
					mask[e] |= bit
				} else {
					mask[e] &^= bit
				}
			}
		}
	}
}

// release returns the search's scratch to the pool; the frontier must not be
// advanced afterwards. Calling it again is a no-op.
func (f *frontier) release() {
	sc := f.pooled
	if sc == nil {
		return
	}
	if f.marked {
		f.stamp(false)
		clear(sc.memo)
	}
	clear(f.cands) // drop the candidates, keep the array
	sc.cands, sc.anc = f.cands[:0], f.scratch[:0]
	f.cands, f.scratch, f.marked, f.pooled = nil, nil, false, nil
	scratchPool.Put(sc)
}

// bound returns the Theorem-4 bound on the degree of an entity with the given
// mask: per level it shares at most the query's cells below the mask's cells.
func (f *frontier) bound(mask uint64) float64 {
	sc := f.pooled
	if ub, ok := sc.memo[mask]; ok {
		return ub
	}
	clear(sc.x)
	m := len(sc.x)
	for rest := mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		for l := range sc.x {
			sc.x[l] += sc.under[i*m+l]
		}
	}
	ub := f.measure.UpperBound(sc.x, f.qCounts)
	sc.memo[mask] = ub
	return ub
}
