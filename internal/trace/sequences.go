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
// Entity IDs are 0..n−1: the facade hands them out densely by arrival, and
// Put takes only an ID the store holds or the next one. Entries live in a
// sealed base under a copy-on-write overlay (a cow.Map), over an optional
// Backing. The base is a table indexed by entity ID, so a read is one
// indexed load; a root store writes it in place. Derive, the seam of the
// root package's incremental folds, gives the child the shared base and the
// next generation of the overlay, or, once the overlay outgrows the store, a
// fresh base holding every entry: an O(|E|) reseal that amortizes to O(1)
// per write. Both rely on *Sequences values being immutable: AddRecords
// replaces an entity's entry, never mutates it.
type Store struct {
	ix *spindex.Index
	// The base: table[e] (nil = in the backing only), written in place only
	// by its owner, a root or a reseal's child, until Derive shares it.
	table   []*Sequences
	owner   bool
	overlay cow.Map[EntityID, *Sequences] // the derived generations' writes
	backing Backing                       // optional lowest layer (mmap/disk); nil for pure in-heap stores
	n       int                           // entities across all layers: IDs 0..n−1
	frozen  bool                          // set once Derive shares this store's layers with a child
}

// Backing is a read-only lowest layer of sequences living outside the heap —
// the sequence region of a saved index image, holding entities 0..Len()−1.
// Reads that miss both in-heap layers fall through to it; writes always land
// in the heap layers and shadow it. storage.SpanReader satisfies this.
type Backing interface {
	Get(EntityID) *Sequences
	Len() int
}

// NewStore returns an empty store over the given sp-index.
func NewStore(ix *spindex.Index) *Store {
	return &Store{ix: ix, owner: true}
}

// NewBackedStore returns a store whose lowest layer is b: every entity of b
// is readable immediately (faulted in lazily by whatever b is), and Put
// shadows b's entries in the heap without touching them. The backing
// survives Derive — it is the permanent floor of the layer stack.
func NewBackedStore(ix *spindex.Index, b Backing) *Store {
	return &Store{ix: ix, owner: true, backing: b, n: b.Len()}
}

// Backing returns the store's lowest layer, or nil for a pure in-heap store.
func (st *Store) Backing() Backing { return st.backing }

// Index returns the sp-index the store's sequences are built against.
func (st *Store) Index() *spindex.Index { return st.ix }

// Put replaces the sequences of an entity the store holds, or appends those
// of the next ID, Len(). It panics on any other ID, and on a frozen store —
// one a Derive already shares structure with; mutate the derived store
// instead.
func (st *Store) Put(s *Sequences) {
	if st.frozen {
		panic("trace: Put on a frozen store (Derive shared its entries with a newer generation); mutate the derived store instead")
	}
	switch e := int(s.Entity); {
	case e == st.n:
		st.n++
	case e < 0 || e > st.n:
		panic(fmt.Sprintf("trace: Put of entity %d, but the next ID is %d (IDs are 0..n−1: Put replaces a held one or appends the next)", e, st.n))
	}
	if st.owner {
		st.place(s)
	} else {
		st.overlay.Set(s.Entity, s)
	}
}

// place writes s into the owned base.
func (st *Store) place(s *Sequences) {
	if e := int(s.Entity); e >= len(st.table) {
		st.table = append(st.table, make([]*Sequences, e+1-len(st.table))...)
	}
	st.table[s.Entity] = s
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
	return nil
}

// Get returns the sequences of an entity, or nil if absent.
func (st *Store) Get(e EntityID) *Sequences {
	if s := st.heapGet(e); s != nil || st.backing == nil || uint(e) >= uint(st.backing.Len()) {
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
		return &Store{ix: st.ix, table: st.table, overlay: st.overlay.Derive(), backing: st.backing, n: st.n}
	}
	d := &Store{ix: st.ix, table: make([]*Sequences, st.n), owner: true, backing: st.backing, n: st.n}
	for e := range d.table {
		d.table[e] = st.heapGet(EntityID(e))
	}
	return d
}

// Len returns the number of entities (|E|); their IDs are 0..Len()−1.
func (st *Store) Len() int { return st.n }

// Entities returns the entity IDs, 0..Len()−1.
func (st *Store) Entities() []EntityID {
	out := make([]EntityID, st.n)
	for i := range out {
		out[i] = EntityID(i)
	}
	return out
}

// AddRecords builds and stores the sequence of one entity from raw records.
func (st *Store) AddRecords(e EntityID, recs []Record) *Sequences {
	s := NewSequences(st.ix, e, recs)
	st.Put(s)
	return s
}
