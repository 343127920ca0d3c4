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
	// The entity table, each indexed entity's level sizes: a sealed base shared
	// by derived generations, and the entries one generation wrote since,
	// which shadow it. An entity in cells.gone is not indexed, whichever layer
	// holds it.
	base, added sizeTable
	n           int // indexed entities
	cells       *cellIndex
}

// sizeTable maps entity IDs to their level sizes, one byte per level: byte
// l-1 holds min(|P^l|, 254) + 1, so an absent ID reads 0 and sizeSaturated
// marks a level of 254 cells or more, whose size the bound takes as unknown.
// IDs in [0, reach) sit in a dense table — the facade allocates IDs from 0
// upward, and reach is about twice the population, as in trace.Store — and
// the rest in a sorted list, so memory stays O(|E|) whatever IDs arrive.
type sizeTable struct {
	m, reach int
	dense    []byte           // entity e's bytes are dense[e*m : (e+1)*m]
	ids      []trace.EntityID // the entries outside [0, reach), ascending
	far      []byte           // their bytes, m each, in the same order
}

const sizeSaturated = 255

// newSizeTable returns an empty table sized for a base of n entities.
func newSizeTable(m, n int) sizeTable { return sizeTable{m: m, reach: 2*n + 16} }

// levelSizes appends s's entry to dst.
func levelSizes(dst []byte, s *trace.Sequences) []byte {
	for l := 1; l <= s.Levels(); l++ {
		dst = append(dst, byte(min(s.Size(l), sizeSaturated-1)+1))
	}
	return dst
}

// get returns e's entry, nil when it has none.
func (t *sizeTable) get(e trace.EntityID) []byte {
	if i := int(e) * t.m; e >= 0 && i < len(t.dense) {
		if b := t.dense[i : i+t.m]; b[0] != 0 {
			return b
		}
		return nil
	}
	if i, ok := slices.BinarySearch(t.ids, e); ok {
		return t.far[i*t.m : (i+1)*t.m]
	}
	return nil
}

// put sets e's entry to a copy of b.
func (t *sizeTable) put(e trace.EntityID, b []byte) {
	if e >= 0 && int(e) < t.reach {
		i := int(e) * t.m
		if len(t.dense) <= i {
			t.dense = append(t.dense, make([]byte, i+t.m-len(t.dense))...)
		}
		copy(t.dense[i:], b)
		return
	}
	i, ok := slices.BinarySearch(t.ids, e)
	if ok {
		copy(t.far[i*t.m:], b)
		return
	}
	t.ids = slices.Insert(t.ids, i, e)
	t.far = slices.Insert(t.far, i*t.m, b...)
}

// ascend calls fn for every entry's ID in ascending order.
func (t *sizeTable) ascend(fn func(trace.EntityID)) {
	ids := t.ids
	for ; len(ids) > 0 && ids[0] < 0; ids = ids[1:] {
		fn(ids[0])
	}
	for i := 0; i < len(t.dense); i += t.m {
		if t.dense[i] != 0 {
			fn(trace.EntityID(i / t.m))
		}
	}
	for _, e := range ids {
		fn(e)
	}
}

func (t *sizeTable) memoryBytes() int { return len(t.dense) + len(t.far) + 4*len(t.ids) }

// BuildPostings indexes the given entities, whose sequences src must hold.
func BuildPostings(ix *spindex.Index, src SequenceSource, entities []trace.EntityID) (*Postings, error) {
	ents := slices.Sorted(slices.Values(entities))
	m := ix.Height()
	base, entry := newSizeTable(m, len(ents)), make([]byte, 0, m)
	for i, e := range ents {
		if i > 0 && ents[i-1] == e {
			return nil, fmt.Errorf("core: entity %d listed twice", e)
		}
		s, err := sequencesOf(src, e, m)
		if err != nil {
			return nil, err
		}
		base.put(e, levelSizes(entry[:0], s))
	}
	return &Postings{ix: ix, src: src, m: m, base: base, added: sizeTable{m: m}, n: len(ents), cells: sealCells(src, ents)}, nil
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
// the receiver wrote since its base was sealed, a layer that folds into a
// fresh base once it reaches half the population, so the fold amortizes to
// O(1) per written entry.
func (p *Postings) Derive(src SequenceSource, dirty []trace.EntityID) (*Postings, error) {
	seqs := make([]*trace.Sequences, len(dirty))
	for i, e := range dirty {
		s, err := sequencesOf(src, e, p.m)
		if err != nil {
			return nil, err
		}
		seqs[i] = s
	}
	// Copied, so a write to added never touches an array another generation
	// reads.
	added := p.added
	added.ids, added.far = slices.Clone(added.ids), slices.Clone(added.far)
	d := &Postings{ix: p.ix, src: src, m: p.m, base: p.base, added: added, n: p.n, cells: p.cells.derive()}
	if trace.OverlayNeedsCompaction(len(p.added.ids), p.n) {
		d.base, d.added = newSizeTable(p.m, p.n), sizeTable{m: p.m}
		p.each(func(e trace.EntityID) { d.base.put(e, p.sizes(e)) })
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
	p.added.put(e, levelSizes(make([]byte, 0, p.m), s))
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

// sizes returns e's entry in the entity table, nil when it has none.
func (p *Postings) sizes(e trace.EntityID) []byte {
	if len(p.added.ids) > 0 {
		if b := p.added.get(e); b != nil {
			return b
		}
	}
	return p.base.get(e)
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
	_, removed := p.cells.gone[e]
	return !removed && p.sizes(e) != nil
}

// Len returns the number of indexed entities (|E|).
func (p *Postings) Len() int { return p.n }

// each calls fn for every indexed entity, in ascending ID order: the base's
// walk with the added entries merged in.
func (p *Postings) each(fn func(trace.EntityID)) {
	emit := func(e trace.EntityID) {
		if _, removed := p.cells.gone[e]; !removed {
			fn(e)
		}
	}
	rest := p.added.ids
	p.base.ascend(func(e trace.EntityID) {
		for ; len(rest) > 0 && rest[0] < e; rest = rest[1:] {
			emit(rest[0])
		}
		if len(rest) > 0 && rest[0] == e {
			rest = rest[1:]
		}
		emit(e)
	})
	for _, e := range rest {
		emit(e)
	}
}

// Entities returns the indexed entity IDs in ascending order.
func (p *Postings) Entities() []trace.EntityID {
	out := make([]trace.EntityID, 0, p.n)
	p.each(func(e trace.EntityID) { out = append(out, e) })
	return out
}

// MemoryBytes estimates the index's size: the entity table (m bytes per
// entity in reach of its dense part, 4 + m per other entry) plus the cell
// index.
func (p *Postings) MemoryBytes() int {
	return p.base.memoryBytes() + p.added.memoryBytes() + p.cells.memoryBytes()
}
