package digitaltraces

// Incremental exact search — the per-shard half of the threshold-pruned
// scatter-gather (package shard). A Search streams an engine's entities in
// exact rank order (degree descending, ties by ascending entity ID) together
// with an admissible upper bound on everything not yet emitted, so a
// coordinator merging several shards can stop pulling from a shard as soon
// as its global k-th result strictly dominates that shard's Bound — without
// the shard ever computing a full local top-k.

import (
	"digitaltraces/internal/core"
	"digitaltraces/internal/trace"
)

// Search is an in-progress incremental top-k query pinned to one immutable
// index snapshot: however long the caller holds it and however much ingest
// or maintenance races it, every Next answers over exactly the state the
// Search was opened on (generation Generation()). The first k results equal
// TopK(·, k) for every k — same entities, degrees and tie order.
//
// A Search holds its frontier across calls and is not safe for concurrent
// use; open one per goroutine. It pins the snapshot's memory, and pooled
// search scratch, until Close (or until it runs dry).
type Search struct {
	snap *snapshot // nil once closed
	it   *core.Iter
	gen  uint64
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
	return newSearch(s, q)
}

func newSearch(s *snapshot, q *trace.Sequences) (*Search, error) {
	it, err := s.post.NewIter(q, s.measure)
	if err != nil {
		return nil, err
	}
	return &Search{snap: s, it: it, gen: s.generation}, nil
}

// Next returns the next entity in exact rank order, or ok = false once every
// indexed entity has been emitted.
func (sr *Search) Next() (Match, bool, error) {
	r, ok, err := sr.it.Next()
	if err != nil || !ok {
		return Match{}, false, err
	}
	return Match{Entity: sr.snap.byID[r.Entity], Degree: r.Degree}, true, nil
}

// Bound returns an admissible upper bound on the degree of every entity Next
// has not yet returned; 0 once exhausted. A coordinator may discard this
// Search without draining it as soon as k merged results strictly dominate
// Bound — no unemitted entity can outrank them (entities tied with the k-th
// at exactly Bound may remain, which is why the cut must be strict).
func (sr *Search) Bound() float64 { return sr.it.Bound() }

// RaiseFloor tells the search that nothing below floor matters — a
// coordinator passes the k-th degree it already holds: Next then scores no
// candidate bounded below it, returns no match below it, and reports ok =
// false once Bound() < floor. Matches at the floor still count (they can win
// the tie-break). A floor lower than the current one is ignored.
func (sr *Search) RaiseFloor(floor float64) { sr.it.RaiseFloor(floor) }

// Close releases the search before it is drained: the pooled scratch goes
// back for reuse and the snapshot is no longer pinned. Next then reports
// ok = false; Checked and Generation still answer. Calling it again is a
// no-op.
func (sr *Search) Close() {
	sr.it.Close()
	sr.snap = nil
}

// Checked reports how many exact degree computations the search has
// performed so far — the work early termination exists to avoid.
func (sr *Search) Checked() int { return sr.it.Stats().Checked }

// Generation identifies the snapshot this Search answers over (the value
// IndexStats reports as Generation). Two Searches with equal generations
// answer over identical index states — what a cluster trace reports per
// shard.
func (sr *Search) Generation() uint64 { return sr.gen }
