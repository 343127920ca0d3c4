package digitaltraces

// Incremental exact search — the per-shard half of the threshold-pruned
// scatter-gather (package shard). A Search streams an engine's entities in
// exact rank order (degree descending, ties by ascending entity ID) in
// batches, each with an admissible upper bound on everything not yet
// surrendered, so a coordinator merging several shards can stop pulling from
// a shard as soon as its global k-th result strictly dominates that shard's
// bound — without the shard ever computing a full local top-k.

import (
	"digitaltraces/internal/core"
)

// Search is an in-progress incremental top-k query pinned to one immutable
// index snapshot: however long the caller holds it and however much ingest
// or maintenance races it, every Pull answers over exactly the state the
// Search was opened on (generation Generation()). Its pulled matches,
// concatenated, equal TopK(·, k)'s answer for every k they reach — same
// entities, degrees and tie order.
//
// A Search holds its frontier across calls and is not safe for concurrent
// use; open one per goroutine. It pins the snapshot's memory, and pooled
// search scratch, until Close (or until it runs dry).
type Search struct {
	snap *snapshot // nil once closed
	it   *core.Iter
	gen  uint64
}

// Batch is what one Pull surrenders: matches in exact rank order, all at or
// above the pull's floor; an admissible upper bound on the degree of
// everything not yet returned (0 once exhausted); and whether anything at or
// above the floor may remain. Fewer than want matches with Live set never
// happens: a short batch means the search ran dry or reached the floor.
type Batch struct {
	Matches []Match
	Bound   float64
	Live    bool
}

// SearchByExample opens an incremental query for a hypothetical entity
// described by visits (discretized exactly like TopKByExample; nothing is
// excluded).
func (db *DB) SearchByExample(visits []Visit) (*Search, error) {
	s, err := db.snapshotForQuery()
	if err != nil {
		return nil, err
	}
	q, err := db.exampleSequences(visits)
	if err != nil {
		return nil, err
	}
	it, err := s.post.NewIter(q, s.measure)
	if err != nil {
		return nil, err
	}
	return &Search{snap: s, it: it, gen: s.generation}, nil
}

// Pull returns the next batch of up to want matches. floor is what the
// caller already holds — a coordinator's k-th degree, 0 while it holds fewer
// than k: the search scores no candidate bounded below it, returns no match
// below it and ends (Live false) once its bound drops below it. Matches at
// the floor are still returned — they can win the tie-break — so the pulled
// matches stay a prefix of the exact order. A floor lower than an earlier
// one is ignored.
func (sr *Search) Pull(want int, floor float64) (Batch, error) {
	sr.it.RaiseFloor(floor)
	out := make([]Match, 0, min(want, 64)) // want may come off the wire: grow, don't trust it
	for len(out) < want {
		r, ok, err := sr.it.Next()
		if err != nil {
			return Batch{}, err
		}
		if !ok {
			return Batch{Matches: out, Bound: sr.it.Bound()}, nil
		}
		out = append(out, Match{Entity: sr.snap.byID[r.Entity], Degree: r.Degree})
	}
	b := sr.it.Bound()
	return Batch{Matches: out, Bound: b, Live: b >= floor}, nil
}

// Close releases the search before it is drained: the pooled scratch goes
// back for reuse and the snapshot is no longer pinned. A later Pull returns
// an empty, dead batch; Checked and Generation still answer. Calling it
// again is a no-op. The error is always nil (shard.Stream's signature).
func (sr *Search) Close() error {
	sr.it.Close()
	sr.snap = nil
	return nil
}

// Checked reports how many exact degree computations the search has
// performed so far — the work early termination exists to avoid.
func (sr *Search) Checked() int { return sr.it.Stats().Checked }

// Generation identifies the snapshot this Search answers over (the value
// IndexStats reports as Generation). Two Searches with equal generations
// answer over identical index states — what a cluster trace reports per
// shard.
func (sr *Search) Generation() uint64 { return sr.gen }
