package core

import (
	"slices"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/trace"
)

// Iter is an incremental exact top-k search: instead of materializing one
// k-sized answer, it streams entities out one at a time in exactly the order
// Tree.TopK ranks them — degree descending, ties by ascending entity ID —
// together with an admissible upper bound on everything not yet emitted.
//
// The iterator is the per-shard half of the threshold-style scatter-gather
// (package shard): a coordinator pulls a few results from each shard, checks
// whether its global k-th result dominates every shard's Bound, and stops
// fanning out as soon as it does — no shard ever computes a full local top-k
// for a query the first handful of its entities already settles.
//
// It is TopK's search recast as a best-first emitter (the incremental
// nearest-neighbor transformation of Hjaltason & Samet): the frontier queues
// the groups not yet examined — buckets of cell-index candidates, or the
// MinSigTree nodes of Algorithm 2 where the index cannot serve — keyed by
// their Theorem-4 upper bound, beside a heap of exactly-scored entities keyed
// by their true degree. A group is examined whenever its bound ties or beats
// the best scored entity — an equal bound may still hide an equal-degree
// entity with a smaller ID, which must be emitted first to preserve TopK's tie
// order — so when an entity finally surfaces, nothing unexamined can outrank
// it.
//
// An Iter pins the tree it was opened on until Close: like TopK it is
// read-only, but it holds its search frontier across calls, so the tree must
// stay unmutated for the iterator's whole lifetime (the root package
// guarantees this by only opening iterators on immutable snapshot trees). An
// Iter is not safe for concurrent use; open one per goroutine.
type Iter struct {
	frontier                  // groups not yet examined, in descending bound order
	exact    []Result         // scored entities of positive degree, heap in canonical answer order
	skipped  []trace.EntityID // scored entities of degree 0, unordered
	zeros    []trace.EntityID // zero-flush tail, ascending ID (nil until everything left has degree 0)
	floor    float64          // nothing bounded below it is examined or returned
}

// NewIter opens an incremental search for the query sequences q (excluding
// the entity q.Entity itself, like TopK). The validation mirrors TopK's.
func (t *Tree) NewIter(q *trace.Sequences, measure adm.Measure) (*Iter, error) {
	f, err := t.newFrontier(q, measure, true)
	if err != nil {
		return nil, err
	}
	return &Iter{frontier: *f}, nil
}

// Next returns the next entity in exact rank order (degree descending, ties
// by ascending entity ID), or ok = false when every indexed entity has been
// emitted — or, under a positive floor, every one at or above it. The first k
// results of an iterator are bit-identical to Tree.TopK(q, k) for every k.
func (it *Iter) Next() (Result, bool, error) {
	if it.zeros != nil {
		return it.nextZero()
	}
	// Examine groups until the best scored entity provably outranks every
	// queued one. The condition is ≥, not >: a group whose bound equals the
	// best degree may contain an equal-degree entity with a smaller ID, which
	// the tie order puts first. For the same reason a group bounded exactly at
	// the floor is still examined.
	keep := func(r Result) {
		if r.Degree == 0 {
			it.skipped = append(it.skipped, r.Entity)
		} else {
			it.exact = heapPush(it.exact, r, ranksBefore)
		}
	}
	for ub, ok := it.peek(); ok && ub > 0 && ub >= it.floor && (len(it.exact) == 0 || ub >= it.exact[0].Degree); ub, ok = it.peek() {
		if err := it.visit(nil, keep); err != nil {
			return Result{}, false, err
		}
	}
	if len(it.exact) > 0 && it.exact[0].Degree >= it.floor {
		var r Result
		r, it.exact = heapPop(it.exact, ranksBefore)
		return r, true, nil
	}
	if it.floor > 0 {
		return Result{}, false, nil // everything left is below the floor
	}
	// The queue drained or its bound hit 0 with every positive degree
	// emitted, so everything left — set aside above, or still queued
	// (admissible bounds, non-negative degrees) — has degree exactly 0.
	// Score-free flush into one ID slice sorted once, emitted incrementally:
	// the canonical ascending-ID order at the cost of a single int sort
	// instead of O(N log N) Result heap sifts, and no per-entity work after
	// the pull a caller stops at (the gather caps pulls at k+1).
	zeros := slices.Grow(it.skipped, 1) // non-nil even when empty: it marks the flush as done
	it.rest(func(e trace.EntityID) { zeros = append(zeros, e) })
	slices.Sort(zeros)
	it.skipped, it.zeros = nil, zeros
	it.release()
	return it.nextZero()
}

// nextZero drains the zero-flush tail: every remaining entity has degree 0,
// pre-sorted by ascending ID, and below any positive floor.
func (it *Iter) nextZero() (Result, bool, error) {
	if len(it.zeros) == 0 || it.floor > 0 {
		return Result{}, false, nil
	}
	e := it.zeros[0]
	it.zeros = it.zeros[1:]
	return Result{Entity: e}, true, nil
}

// Bound returns an admissible upper bound on the degree of every entity Next
// has not yet returned: no future Next result exceeds it. Once the iterator
// is exhausted it returns 0 (degrees are in [0, 1], so an exhausted shard
// never blocks a coordinator's termination check — but coordinators should
// cut on Next's ok = false, since a real entity with degree 0 may remain
// behind a Bound of 0).
func (it *Iter) Bound() float64 {
	b, _ := it.peek()
	if len(it.exact) > 0 && it.exact[0].Degree > b {
		b = it.exact[0].Degree
	}
	return b
}

// RaiseFloor lifts the floor to floor; a lower value than the current one is
// ignored. From then on Next examines no group bounded below the floor,
// returns no entity below it, and reports ok = false once Bound() < floor.
// Entities exactly at the floor are still returned: they can win a tie.
func (it *Iter) RaiseFloor(floor float64) { it.floor = max(it.floor, floor) }

// Close ends the iterator before it is drained: its pooled scratch goes back
// for reuse and the tree is no longer referenced, so Next reports ok = false
// and Bound 0 from then on. Stats stay readable. Calling it again is a no-op.
func (it *Iter) Close() {
	it.release()
	it.t = nil
	it.exact, it.skipped, it.zeros = nil, nil, []trace.EntityID{}
}

// Stats reports the work performed so far: Checked counts exact degree
// computations, the cost early termination exists to cut (BoundSkipped the
// candidates not scored yet, ZeroSkipped the entities that are none). PE and
// Pruned are left zero — an incremental search has no fixed answer size to
// normalize against; coordinators recompute them over their own population.
func (it *Iter) Stats() SearchStats { return it.stats }
