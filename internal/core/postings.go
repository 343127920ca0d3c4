package core

import (
	"fmt"
	"slices"

	"digitaltraces/internal/cow"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// SequenceSource supplies entity ST-cell set sequences to the index and the
// query processor. *trace.Store implements it, in memory or over a saved
// image's sequence region; *storage.Store (internal/storage) implements it
// through a block file and LRU buffer pool for the memory-bounded
// experiments of Section 7.6 only.
type SequenceSource interface {
	// Get returns the sequences of an entity, or nil if unknown.
	Get(e trace.EntityID) *trace.Sequences
}

var _ SequenceSource = (*trace.Store)(nil)

// Postings is the served index: an entity table and the level-1 cell index
// over a sequence source. It answers TopK, ApproxTopK and NewIter
// from the postings of the query's level-1 cells (DESIGN.md, "Posting-driven
// search") and carries no signatures: building it hashes nothing, and Derive
// folds dirty entities in O(dirty).
//
// A Postings is never mutated once another goroutine can see it — Derive
// builds the next generation aside and leaves the receiver reading as it did
// — so any number of searches may run against one concurrently. The
// MinSigTree (Tree) composes one and is its only writer in place.
type Postings struct {
	ix  *spindex.Index
	src SequenceSource
	m   int
	// The entity table, each indexed entity's level sizes, one byte per level:
	// byte l-1 holds min(|P^l|, 254) + 1, so an absent ID reads 0 and
	// sizeSaturated marks a level of 254 cells or more, whose size the bound
	// takes as unknown. Entity IDs index it: the sealed base holds e's bytes at
	// base[e*m:] (seal), added what was written since, nil for a removed
	// entity. Every indexed ID is below bound.
	base    []byte
	added   cow.Map[trace.EntityID, []byte]
	bound   int
	n       int  // indexed entities
	removed bool // by remove: a posted entity may not be indexed
	cells   *cellIndex
}

const sizeSaturated = 255

// levelSizes appends s's entry in the entity table to dst.
func levelSizes(dst []byte, s *trace.Sequences) []byte {
	for l := 1; l <= s.Levels(); l++ {
		dst = append(dst, byte(min(s.Size(l), sizeSaturated-1)+1))
	}
	return dst
}

// BuildPostings indexes the given entities, whose sequences src must hold.
// Their IDs index the entity table, so the table spans 0 up to the largest:
// the facade hands IDs out 0..n−1.
func BuildPostings(ix *spindex.Index, src SequenceSource, entities []trace.EntityID) (*Postings, error) {
	ents := slices.Sorted(slices.Values(entities))
	m := ix.Height()
	p, entry := &Postings{ix: ix, src: src, m: m, n: len(ents)}, make([]byte, 0, m)
	for i, e := range ents {
		if i > 0 && ents[i-1] == e {
			return nil, fmt.Errorf("core: entity %d listed twice", e)
		}
		s, err := sequencesOf(src, e, m)
		if err != nil {
			return nil, err
		}
		p.seal(e, levelSizes(entry[:0], s))
	}
	p.cells = sealCells(src, ents)
	return p, nil
}

// seal enters e's sizes in the sealed base.
func (p *Postings) seal(e trace.EntityID, b []byte) {
	i := int(e) * p.m
	if len(p.base) <= i {
		p.base = append(p.base, make([]byte, i+p.m-len(p.base))...)
	}
	copy(p.base[i:], b)
	p.bound = max(p.bound, int(e)+1)
}

// sequencesOf fetches an entity's sequences, which must exist and have m
// levels; a negative ID indexes nothing.
func sequencesOf(src SequenceSource, e trace.EntityID, m int) (*trace.Sequences, error) {
	if e < 0 {
		return nil, fmt.Errorf("core: entity ID %d is negative; indexed IDs are 0..n−1", e)
	}
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
// their current data — and the receiver reading as it did (write only the
// result from then on), for O(dirty) plus the copy-on-write merges and reseals.
func (p *Postings) Derive(src SequenceSource, dirty []trace.EntityID) (*Postings, error) {
	seqs := make([]*trace.Sequences, len(dirty))
	for i, e := range dirty {
		s, err := sequencesOf(src, e, p.m)
		if err != nil {
			return nil, err
		}
		seqs[i] = s
	}
	d := &Postings{ix: p.ix, src: src, m: p.m, n: p.n, removed: p.removed, cells: p.cells.derive()}
	if p.added.Outgrows(p.n) {
		p.each(func(e trace.EntityID) { d.seal(e, p.sizes(e)) })
	} else {
		d.base, d.added, d.bound = p.base, p.added.Derive(), p.bound
	}
	for i, e := range dirty {
		d.add(e, seqs[i])
	}
	return d, nil
}

// add indexes e with sequences s: enters its current sizes in the table and
// posts it under its level-1 cells. Re-adding an indexed entity only adds the
// pairs it lacks; its stale ones stay and loosen its bound.
func (p *Postings) add(e trace.EntityID, s *trace.Sequences) {
	if !p.Contains(e) {
		p.n++
	}
	p.bound = max(p.bound, int(e)+1)
	p.added.Set(e, levelSizes(make([]byte, 0, p.m), s))
	p.cells.add(e, s.At(1))
}

// remove unindexes e. Its pairs stay posted; its nil entry keeps every
// search from scoring it.
func (p *Postings) remove(e trace.EntityID) {
	if p.Contains(e) {
		p.n--
		p.added.Set(e, nil)
		p.removed = true
	}
}

// sizes returns e's entry in the entity table, nil when it has none.
func (p *Postings) sizes(e trace.EntityID) []byte {
	if b, ok := p.added.Get(e); ok {
		return b
	}
	if i := int(e) * p.m; e >= 0 && i < len(p.base) && p.base[i] != 0 {
		return p.base[i : i+p.m]
	}
	return nil
}

// levelSizesOf fills dst with e's level sizes as Measure.UpperBound takes
// them, -1 for a saturated level, and returns it; nil when e has no entry.
func (p *Postings) levelSizesOf(e trace.EntityID, dst []int) []int {
	b := p.sizes(e)
	if b == nil {
		return nil
	}
	for l, c := range b {
		dst[l] = int(c) - 1
		if c == sizeSaturated {
			dst[l] = -1
		}
	}
	return dst
}

// Contains reports whether the entity is indexed.
func (p *Postings) Contains(e trace.EntityID) bool {
	return p.sizes(e) != nil
}

// Len returns the number of indexed entities (|E|).
func (p *Postings) Len() int { return p.n }

// each calls fn for every indexed entity, in ascending ID order: a walk of
// the ID range that reads the base's bytes in place and probes added only
// for an ID the base lacks or a removal may have dropped.
func (p *Postings) each(fn func(trace.EntityID)) {
	for e := range trace.EntityID(p.bound) {
		if i := int(e) * p.m; i < len(p.base) && p.base[i] != 0 && !p.removed || p.Contains(e) {
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

// MemoryBytes estimates the index's size: the entity table (m bytes per
// entity of its sealed base, 4 + m per entry written since) plus the cell
// index.
func (p *Postings) MemoryBytes() int {
	return len(p.base) + (4+p.m)*p.added.Writes() + p.cells.memoryBytes()
}
