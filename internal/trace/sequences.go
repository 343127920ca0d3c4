package trace

import (
	"cmp"
	"fmt"
	"slices"

	"digitaltraces/internal/cow"
	"digitaltraces/internal/spindex"
)

// Sequences is the ST-cell set sequence of one entity (Section 4.1): one set
// of cells per sp-index level. Level m (the base level) holds the entity's
// raw ST-cells; each coarser level holds the cells obtained by replacing the
// spatial unit with its parent (Example 4.1.1). Sets are stored sorted and
// deduplicated, so set operations are linear merges.
type Sequences struct {
	Entity EntityID
	// flat is the whole sequence in one allocation: m+1 level offsets, then
	// the m level sets, coarsest first. Level l is flat[flat[l-1]:flat[l]],
	// so flat[0] = m+1 and an exact-degree evaluation reaches the offsets
	// and the first levels through a single pointer, usually on one cache
	// line. A Sequences with no levels has an empty flat.
	flat []Cell
}

// Levels returns m, the number of levels in the sequence.
func (s *Sequences) Levels() int {
	if len(s.flat) == 0 {
		return 0
	}
	return int(s.flat[0]) - 1
}

// At returns seq^level, the sorted cell set at the given level (1-indexed,
// 1 = coarsest). The returned slice is shared; callers must not modify it.
// Its capacity is clipped to its length, so an append reallocates instead of
// overwriting the next level.
func (s *Sequences) At(level int) []Cell {
	lo, hi := s.flat[level-1], s.flat[level]
	return s.flat[lo:hi:hi]
}

// Base returns seq^m: the entity's base ST-cells (S_q for a query entity,
// Section 5.1).
func (s *Sequences) Base() []Cell { return s.At(s.Levels()) }

// Size returns |seq^level|.
func (s *Sequences) Size(level int) int { return int(s.flat[level] - s.flat[level-1]) }

// TotalCells returns the summed size over all levels; used for memory and
// index-cost accounting (the constant C of Section 4.3 is TotalCells/Levels
// averaged over entities).
func (s *Sequences) TotalCells() int { return len(s.flat) - s.Levels() - 1 }

// Contains reports whether seq^level contains the cell.
func (s *Sequences) Contains(level int, c Cell) bool {
	_, ok := slices.BinarySearch(s.At(level), c)
	return ok
}

// Clone returns a deep copy (used by update paths that mutate sequences).
func (s *Sequences) Clone() *Sequences {
	return &Sequences{Entity: s.Entity, flat: slices.Clone(s.flat)}
}

// NewSequences builds the ST-cell set sequence of an entity from its raw
// records, per Section 4.1: seq^m comes directly from the digital trace
// (one cell per (time unit, base unit) of presence), and seq^i for i < m is
// derived from seq^(i+1) by mapping each cell's unit to its parent.
//
// Records may overlap and repeat; the resulting sets are deduplicated.
func NewSequences(ix *spindex.Index, entity EntityID, recs []Record) *Sequences {
	return NewSequencesMerged(ix, entity, recs)
}

// NewSequencesFromCells builds a sequence directly from base-level cells
// (each cell's unit must be a level-m unit). Generators that already operate
// on cells use this to skip record materialization.
func NewSequencesFromCells(ix *spindex.Index, entity EntityID, base []Cell) *Sequences {
	return newSequencesFromBase(ix, entity, slices.Clone(base))
}

// NewSequencesMerged builds an entity's sequence from raw records unioned
// with previously folded sequences (nil ones are skipped). Because cell sets
// are sorted-deduped sets and visits are append-only, the union is exact
// whether recs is the entity's full history, only the suffix since prev was
// folded, or any overlapping mix — re-unioning already-folded cells is
// idempotent. This is how every fold adds pending visits to what an entity's
// sequence already covers.
func NewSequencesMerged(ix *spindex.Index, entity EntityID, recs []Record, prev ...*Sequences) *Sequences {
	span := 0
	for _, p := range prev {
		if p != nil {
			span += len(p.Base())
		}
	}
	for _, r := range recs {
		span += r.Span()
	}
	base := make([]Cell, 0, span)
	for _, r := range recs {
		u := ix.BaseUnit(r.Base)
		for t := r.Start; t < r.End; t++ {
			base = append(base, MakeCell(t, u))
		}
	}
	for _, p := range prev {
		if p != nil {
			base = append(base, p.Base()...)
		}
	}
	return newSequencesFromBase(ix, entity, base)
}

// newSequencesFromBase derives every level from the (unsorted, owned) base
// cells directly in the flat layout. The buffer is sized for the worst case —
// every level as large as the base — and filled from the back: each level is
// derived from the one after it and packed against it. Coarsening rarely
// merges cells (it takes two presences in one time unit under one parent),
// so the levels usually end up flush with the offsets; otherwise the gap is
// closed by one copy into an exactly sized buffer.
func newSequencesFromBase(ix *spindex.Index, entity EntityID, base []Cell) *Sequences {
	m := ix.Height()
	base = sortDedup(base)
	flat := make([]Cell, m+1+m*len(base))
	hi := len(flat)
	lo := hi - len(base)
	copy(flat[lo:], base)
	for l := m; l > 1; l-- {
		flat[l] = Cell(hi)
		finer := flat[lo:hi]
		coarser := flat[lo-len(finer) : lo]
		for i, c := range finer {
			coarser[i] = MakeCell(c.Time(), ix.Parent(c.Unit()))
		}
		k := len(sortDedup(coarser))
		copy(flat[lo-k:lo], coarser[:k])
		hi, lo = lo, lo-k
	}
	flat[1], flat[0] = Cell(hi), Cell(lo)
	if gap := lo - (m + 1); gap > 0 {
		exact := make([]Cell, len(flat)-gap)
		for l := 0; l <= m; l++ {
			exact[l] = flat[l] - Cell(gap)
		}
		copy(exact[m+1:], flat[lo:])
		flat = exact
	}
	return &Sequences{Entity: entity, flat: flat}
}

// PresenceInstances reconstructs the entity's presence instances at a given
// level by coalescing consecutive cells at the same unit into continuous
// periods (the inverse of discretization, up to merging of adjacent
// records), ordered by unit, then time.
func (s *Sequences) PresenceInstances(level int) []PresenceInstance {
	cells := s.At(level)
	if len(cells) == 0 {
		return nil
	}
	// The cells come time-major, so each unit's times arrive ascending: one
	// pass extends the unit's latest period or opens its next, keeping each
	// unit's periods in time order. Only the few distinct units are sorted;
	// the periods then move into unit order by counting.
	var (
		ubuf   [16]spindex.UnitID
		lbuf   [16]int
		units  = ubuf[:0] // distinct units, in order of first sight
		latest = lbuf[:0] // latest[i]: index in runs of units[i]'s last period
		runs   = make([]PresenceInstance, 0, len(cells))
		at     int // the units index of the previous cell's unit
	)
	for _, c := range cells {
		u, t := c.Unit(), c.Time()
		if at >= len(units) || units[at] != u {
			if at = slices.Index(units, u); at < 0 {
				at = len(units)
				units, latest = append(units, u), append(latest, -1)
			}
		}
		if i := latest[at]; i >= 0 && runs[i].End == t {
			runs[i].End++
			continue
		}
		latest[at] = len(runs)
		// Entity carries the units index until the period is placed.
		runs = append(runs, PresenceInstance{Entity: EntityID(at), Unit: u, Start: t, End: t + 1})
	}
	var obuf [16]int
	order := obuf[:0] // units indices in unit order
	for i := range units {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(units[a], units[b]) })
	next := latest // reused: next[i] is where units[i]'s next period goes
	clear(next)
	for _, p := range runs {
		next[p.Entity]++
	}
	sum := 0
	for _, i := range order {
		sum, next[i] = sum+next[i], sum
	}
	out := make([]PresenceInstance, len(runs))
	for _, p := range runs {
		i := p.Entity
		p.Entity = s.Entity
		out[next[i]] = p
		next[i]++
	}
	return out
}

// Validate checks the derivation invariant: every cell at level l>1 has its
// parent cell present at level l-1, and every cell at level l<m has at least
// one child cell at level l+1. Returns nil when the sequence is a valid
// Section 4.1 derivation.
func (s *Sequences) Validate(ix *spindex.Index) error {
	m := s.Levels()
	for l := 2; l <= m; l++ {
		for _, c := range s.At(l) {
			pc := MakeCell(c.Time(), ix.Parent(c.Unit()))
			if !s.Contains(l-1, pc) {
				return fmt.Errorf("trace: entity %d: cell %v at level %d lacks parent cell %v at level %d",
					s.Entity, c, l, pc, l-1)
			}
		}
	}
	for l := 1; l < m; l++ {
		childTimes := make(map[Cell]bool, s.Size(l+1))
		for _, c := range s.At(l + 1) {
			childTimes[MakeCell(c.Time(), ix.Parent(c.Unit()))] = true
		}
		for _, c := range s.At(l) {
			if !childTimes[c] {
				return fmt.Errorf("trace: entity %d: cell %v at level %d has no child cell at level %d",
					s.Entity, c, l, l+1)
			}
		}
	}
	return nil
}

// sortDedup sorts cells ascending and removes duplicates in place.
func sortDedup(cells []Cell) []Cell {
	slices.Sort(cells)
	return slices.Compact(cells)
}

// IntersectionSize returns |a ∩ b| for two sorted cell sets.
func IntersectionSize(a, b []Cell) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersection returns the sorted intersection of two sorted cell sets.
func Intersection(a, b []Cell) []Cell {
	var out []Cell
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Store is an in-memory collection of entity sequences, the "digital-trace
// database" the index and the query processor read from.
//
// Entries live in a sealed base under a copy-on-write overlay (a cow.Map),
// over an optional Backing. The base is a dense table indexed by entity ID —
// the facade allocates IDs from 0 upward by arrival, so a read is one indexed
// load — and a map for the IDs the table cannot hold: negative, sparse or far
// beyond the population (the table only ever reaches about twice the live
// entity count, so memory stays O(|E|) whatever IDs arrive; an early ID moves
// in once the table reaches it). A root store writes its base in place.
// Derive, the seam of the root package's incremental folds, gives the child
// the shared base and the next generation of the overlay, or, once the
// overlay outgrows the store, a fresh base holding every entry: an O(|E|)
// reseal that amortizes to O(1) per write. Both rely on *Sequences values
// being immutable: AddRecords replaces an entity's entry, never mutates it.
type Store struct {
	ix *spindex.Index
	// The base: table[e] for 0 ≤ e < len(table) (nil = absent), far for the IDs
	// beyond its reach, ids their insertion order; written in place only by its
	// owner, a root or a reseal's child, until Derive shares it.
	table []*Sequences
	far   map[EntityID]*Sequences
	ids   []EntityID
	owner bool
	// The derived generations' writes, and the entities they inserted: order
	// maps i to the i-th.
	overlay cow.Map[EntityID, *Sequences]
	order   cow.Map[int, EntityID]
	backing Backing // optional lowest layer (mmap/disk); nil for pure in-heap stores
	n       int     // live entities across all layers
	frozen  bool    // set once Derive shares this store's layers with a child
}

// denseSlack lets a small or empty store take its first few IDs into the
// table without waiting for the population to justify them.
const denseSlack = 16

// Backing is a read-only lowest layer of sequences living outside the heap —
// a disk block file or a memory-mapped snapshot region. Reads that miss both
// in-heap layers fall through to it; writes always land in the heap layers
// and shadow it. storage.Store satisfies this.
type Backing interface {
	Get(EntityID) *Sequences
	Has(EntityID) bool
	Entities() []EntityID
}

// NewStore returns an empty store over the given sp-index.
func NewStore(ix *spindex.Index) *Store {
	return &Store{ix: ix, far: make(map[EntityID]*Sequences), owner: true}
}

// NewBackedStore returns a store whose lowest layer is b: every entity of b
// is readable immediately (faulted in lazily by whatever b is), and Put
// shadows b's entries in the heap without touching them. The backing
// survives Derive — it is the permanent floor of the layer stack.
func NewBackedStore(ix *spindex.Index, b Backing) *Store {
	st := NewStore(ix)
	st.backing, st.n = b, len(b.Entities())
	return st
}

// Index returns the sp-index the store's sequences are built against.
func (st *Store) Index() *spindex.Index { return st.ix }

// Put inserts or replaces the sequences of an entity. Put panics on a frozen
// store — one a Derive already shares structure with; mutate the derived
// store instead.
func (st *Store) Put(s *Sequences) {
	if st.frozen {
		panic("trace: Put on a frozen store (Derive shared its entries with a newer generation); mutate the derived store instead")
	}
	if st.heapGet(s.Entity) == nil && (st.backing == nil || !st.backing.Has(s.Entity)) {
		st.n++
		if !st.owner {
			st.order.Set(st.order.Writes(), s.Entity)
		} else if st.ids = append(st.ids, s.Entity); len(st.far) != 0 {
			// The table's reach grew by two IDs: move them in if they came early.
			for e := st.tableReach() - 2; e < st.tableReach(); e++ {
				if early, ok := st.far[EntityID(e)]; ok {
					delete(st.far, EntityID(e))
					st.place(early)
				}
			}
		}
	}
	if st.owner {
		st.place(s)
	} else {
		st.overlay.Set(s.Entity, s)
	}
}

// tableReach bounds the IDs the table may hold: about twice the population,
// so memory stays O(|E|) whatever IDs arrive.
func (st *Store) tableReach() int { return 2*st.n + denseSlack }

// place writes s into the owned base: the table within reach, far beyond.
func (st *Store) place(s *Sequences) {
	e := int(s.Entity)
	if e < 0 || e >= st.tableReach() {
		st.far[s.Entity] = s
		return
	}
	if e >= len(st.table) {
		st.table = append(st.table, make([]*Sequences, e+1-len(st.table))...)
	}
	st.table[e] = s
}

// heapGet resolves e through the overlay, skipped while empty, then the base.
func (st *Store) heapGet(e EntityID) *Sequences {
	if st.overlay.Writes() != 0 {
		if s, ok := st.overlay.Get(e); ok {
			return s
		}
	}
	if uint(e) < uint(len(st.table)) {
		return st.table[e]
	}
	return st.far[e]
}

// Get returns the sequences of an entity, or nil if absent.
func (st *Store) Get(e EntityID) *Sequences {
	if s := st.heapGet(e); s != nil || st.backing == nil {
		return s
	}
	return st.backing.Get(e)
}

// Derive returns a copy-on-write child sharing this store's entries (see the
// Store comment for the reseal). The receiver is frozen from here on: Put
// panics.
func (st *Store) Derive() *Store {
	st.frozen = true
	if !st.overlay.Outgrows(st.n) {
		return &Store{ix: st.ix, table: st.table, far: st.far, ids: st.ids, overlay: st.overlay.Derive(), order: st.order.Derive(), backing: st.backing, n: st.n}
	}
	ids := st.Entities()
	d := NewStore(st.ix)
	d.ids, d.backing, d.n = slices.Clone(ids[len(ids)-len(st.ids)-st.order.Writes():]), st.backing, st.n
	for _, e := range ids {
		if s := st.heapGet(e); s != nil {
			d.place(s)
		}
	}
	return d
}

// Len returns the number of entities (|E|).
func (st *Store) Len() int { return st.n }

// Entities returns entity IDs in insertion order: backing first (its file
// order), then the base's inserts, then the derived generations'. For an
// unbacked root store the slice is shared — do not modify; other shapes
// allocate the concatenation.
func (st *Store) Entities() []EntityID {
	if st.owner && st.backing == nil {
		return st.ids
	}
	out := make([]EntityID, 0, st.n)
	if st.backing != nil {
		out = append(out, st.backing.Entities()...)
	}
	out = append(out, st.ids...)
	for i := range st.order.Writes() {
		e, _ := st.order.Get(i)
		out = append(out, e)
	}
	return out
}

// AddRecords builds and stores the sequence of one entity from raw records.
func (st *Store) AddRecords(e EntityID, recs []Record) *Sequences {
	s := NewSequences(st.ix, e, recs)
	st.Put(s)
	return s
}
