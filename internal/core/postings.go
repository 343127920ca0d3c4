package core

import (
	"fmt"
	"slices"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// SequenceSource supplies entity ST-cell set sequences to the index and the
// query processor. *trace.Store implements it in memory;
// *storage.Store (internal/storage) implements it through a block file and
// buffer pool for the memory-bounded experiments of Section 7.6.
type SequenceSource interface {
	// Get returns the sequences of an entity, or nil if unknown.
	Get(e trace.EntityID) *trace.Sequences
}

var _ SequenceSource = (*trace.Store)(nil)

// Postings is the served index: an entity table and the level-1 cell index
// over a sequence source. It answers TopK, ApproxTopK, NewIter and KNNJoin
// from the postings of the query's level-1 cells (DESIGN.md, "Posting-driven
// search") and carries no signatures: building it hashes nothing, and Derive
// folds dirty entities in O(dirty).
//
// A Postings is never mutated once another goroutine can see it — Derive
// builds the next generation aside and leaves the receiver untouched — so any
// number of searches may run against one concurrently. The MinSigTree (Tree)
// composes one and is its only writer in place.
type Postings struct {
	ix  *spindex.Index
	src SequenceSource
	m   int
	// The entity table, ascending: a sealed base shared by derived
	// generations, and the IDs one generation added since, disjoint from it.
	// An entity in cells.gone is not indexed, whichever list holds it.
	ents, added []trace.EntityID
	n           int // indexed entities
	cells       *cellIndex
}

// BuildPostings indexes the given entities, whose sequences src must hold.
func BuildPostings(ix *spindex.Index, src SequenceSource, entities []trace.EntityID) (*Postings, error) {
	ents := slices.Sorted(slices.Values(entities))
	for i, e := range ents {
		if i > 0 && ents[i-1] == e {
			return nil, fmt.Errorf("core: entity %d listed twice", e)
		}
		if _, err := sequencesOf(src, e, ix.Height()); err != nil {
			return nil, err
		}
	}
	return &Postings{ix: ix, src: src, m: ix.Height(), ents: ents, n: len(ents), cells: sealCells(src, ents)}, nil
}

// sequencesOf fetches an entity's sequences, which must exist and have m
// levels.
func sequencesOf(src SequenceSource, e trace.EntityID, m int) (*trace.Sequences, error) {
	s := src.Get(e)
	if s == nil {
		return nil, fmt.Errorf("core: entity %d has no sequences in the source", e)
	}
	if s.Levels() != m {
		return nil, fmt.Errorf("core: entity %d has %d levels, index has %d", e, s.Levels(), m)
	}
	return s, nil
}

// Derive returns the next generation: the receiver's entities over src, with
// the dirty ones (re-)indexed from their sequences in src — which must hold
// their current data — and the receiver untouched. Cost is O(dirty) plus what
// the receiver added since its base was sealed, a layer that folds into a
// fresh base once it reaches half the base's size, so the fold amortizes to
// O(1) per added entry.
func (p *Postings) Derive(src SequenceSource, dirty []trace.EntityID) (*Postings, error) {
	seqs := make([]*trace.Sequences, len(dirty))
	for i, e := range dirty {
		s, err := sequencesOf(src, e, p.m)
		if err != nil {
			return nil, err
		}
		seqs[i] = s
	}
	// Clipped, so an insert into added never writes an array another
	// generation reads.
	d := &Postings{ix: p.ix, src: src, m: p.m, ents: p.ents, added: slices.Clip(p.added), n: p.n, cells: p.cells.derive()}
	if trace.OverlayNeedsCompaction(len(p.added), len(p.ents)) {
		d.ents, d.added = p.Entities(), nil
	}
	for i, e := range dirty {
		d.add(e, seqs[i])
	}
	return d, nil
}

// add indexes e with sequences s: enters it in the table and posts it under
// its level-1 cells. Re-adding an indexed entity only adds the pairs it lacks;
// its stale ones stay and loosen its bound.
func (p *Postings) add(e trace.EntityID, s *trace.Sequences) {
	if !p.Contains(e) {
		p.n++
		if !p.inTable(e) {
			i, _ := slices.BinarySearch(p.added, e)
			p.added = slices.Insert(p.added, i, e)
		}
	}
	p.cells.add(e, s.At(1))
}

// remove unindexes e. Its pairs stay posted; gone keeps every search from
// scoring it.
func (p *Postings) remove(e trace.EntityID) {
	if p.Contains(e) {
		p.n--
		p.cells.gone[e] = struct{}{}
	}
}

func (p *Postings) inTable(e trace.EntityID) bool {
	_, base := slices.BinarySearch(p.ents, e)
	_, added := slices.BinarySearch(p.added, e)
	return base || added
}

// Contains reports whether the entity is indexed.
func (p *Postings) Contains(e trace.EntityID) bool {
	_, removed := p.cells.gone[e]
	return !removed && p.inTable(e)
}

// Len returns the number of indexed entities (|E|).
func (p *Postings) Len() int { return p.n }

// each calls fn for every indexed entity, in ascending ID order.
func (p *Postings) each(fn func(trace.EntityID)) {
	a, b := p.ents, p.added
	for len(a) > 0 || len(b) > 0 {
		var e trace.EntityID
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			e, a = a[0], a[1:]
		} else {
			e, b = b[0], b[1:]
		}
		if _, removed := p.cells.gone[e]; !removed {
			fn(e)
		}
	}
}

// Entities returns the indexed entity IDs in ascending order.
func (p *Postings) Entities() []trace.EntityID {
	out := make([]trace.EntityID, 0, p.n)
	p.each(func(e trace.EntityID) { out = append(out, e) })
	return out
}

// MemoryBytes estimates the index's size: 4 bytes per table entry plus the
// cell index.
func (p *Postings) MemoryBytes() int {
	return 4*(len(p.ents)+len(p.added)) + p.cells.memoryBytes()
}
