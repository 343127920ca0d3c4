package trace

import (
	"fmt"
	"maps"
	"slices"

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
	return NewSequencesMerged(ix, entity, recs, nil)
}

// NewSequencesFromCells builds a sequence directly from base-level cells
// (each cell's unit must be a level-m unit). Generators that already operate
// on cells use this to skip record materialization.
func NewSequencesFromCells(ix *spindex.Index, entity EntityID, base []Cell) *Sequences {
	return newSequencesFromBase(ix, entity, slices.Clone(base))
}

// NewSequencesMerged builds an entity's sequence from raw records unioned
// with a previously folded sequence. Because cell sets are sorted-deduped
// sets and visits are append-only, the union is exact whether recs is the
// entity's full history, only the suffix since prev was folded, or any
// overlapping mix — re-unioning already-folded cells is idempotent. This is
// how mmap-loaded snapshots (which never re-ingest the visit log) fold new
// visits on refresh. prev == nil means there is nothing to union with.
func NewSequencesMerged(ix *spindex.Index, entity EntityID, recs []Record, prev *Sequences) *Sequences {
	var folded []Cell
	if prev != nil {
		folded = prev.Base()
	}
	span := len(folded)
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
	base = append(base, folded...)
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
// records).
func (s *Sequences) PresenceInstances(level int) []PresenceInstance {
	cells := s.At(level)
	// Group by unit, then coalesce consecutive times.
	byUnit := make(map[spindex.UnitID][]Time)
	for _, c := range cells {
		byUnit[c.Unit()] = append(byUnit[c.Unit()], c.Time())
	}
	units := make([]spindex.UnitID, 0, len(byUnit))
	for u := range byUnit {
		units = append(units, u)
	}
	slices.Sort(units)
	var out []PresenceInstance
	for _, u := range units {
		times := byUnit[u]
		slices.Sort(times)
		start := times[0]
		prev := times[0]
		for _, t := range times[1:] {
			if t != prev+1 {
				out = append(out, PresenceInstance{Entity: s.Entity, Unit: u, Start: start, End: prev + 1})
				start = t
			}
			prev = t
		}
		out = append(out, PresenceInstance{Entity: s.Entity, Unit: u, Start: start, End: prev + 1})
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

// OverlayNeedsCompaction is the shared compaction rule for the repo's
// two-layer copy-on-write structures (Store.Derive here and core's
// sigTable): fold the layers once the private overlay has grown to half the
// frozen base. Both structures cite the same amortization argument — the
// occasional O(|E|) fold costs O(1) per write — so the threshold lives in
// exactly one place.
func OverlayNeedsCompaction(overlay, base int) bool {
	return 2*overlay >= base
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
// Entries live in two heap layers over an optional Backing. The base layer
// is a dense table indexed by entity ID — the facade allocates IDs from 0
// upward by arrival, so a read is one indexed load. The overlay is a small
// map holding whatever the table cannot: a derived store's private writes,
// and IDs that are negative, sparse or far beyond the population (the table
// is only ever grown to about twice the live entity count, so memory stays
// O(|E|) whatever IDs arrive; an early ID moves in once the table reaches it).
//
// A Store supports two copying modes. Clone is the flat copy: a fresh table
// and overlay sharing the *Sequences values, O(|E|). Derive is the
// copy-on-write derivation the root package's incremental Refresh runs on:
// the derived store shares the parent's table, frozen from then on, and
// records its own writes in its overlay, so deriving costs O(|parent
// overlay|) — the entities written since the last compaction — never O(|E|).
// A derive whose parent overlay has grown to half its base folds the layers
// back into one, so the overlay stays small and the occasional O(|E|) fold
// amortizes to O(1) per write. Both modes rely on ingest treating *Sequences
// values as immutable: AddRecords replaces an entity's entry with a newly
// built Sequences rather than mutating the old one in place.
type Store struct {
	ix       *spindex.Index
	base     []*Sequences            // base[e] for 0 ≤ e < len(base); nil = absent here
	baseLen  int                     // non-nil entries of base
	ownsBase bool                    // base is private and written in place; false once shared by Derive
	overlay  map[EntityID]*Sequences // private entries shadowing base, plus IDs base cannot hold
	ids      []EntityID              // entities first inserted here, in insertion order
	baseIDs  []EntityID              // insertion order of the generations before, frozen with base
	backing  Backing                 // optional lowest layer (mmap/disk); nil for pure in-heap stores
	n        int                     // live entities across all layers
	frozen   bool                    // set once Derive shares this store's layers with a child
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
	return &Store{ix: ix, ownsBase: true, overlay: make(map[EntityID]*Sequences)}
}

// NewBackedStore returns a store whose lowest layer is b: every entity of b
// is readable immediately (faulted in lazily by whatever b is), and Put
// shadows b's entries in the heap without touching them. The backing
// survives Clone and Derive — it is the permanent floor of the layer stack.
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
		st.ids = append(st.ids, s.Entity)
		st.n++
		// The table's reach (tableReach) just grew by two IDs: move them in if
		// they arrived early, so a root store's overlay only ever holds what
		// the table cannot and a later Derive copies nothing it need not.
		if st.ownsBase && len(st.overlay) != 0 {
			for e := st.tableReach() - 2; e < st.tableReach(); e++ {
				if early, ok := st.overlay[EntityID(e)]; ok {
					delete(st.overlay, EntityID(e))
					st.place(early)
				}
			}
		}
	}
	st.place(s)
}

// tableReach bounds the IDs the table may hold: about twice the population,
// so memory stays O(|E|) whatever IDs arrive.
func (st *Store) tableReach() int { return 2*st.n + denseSlack }

// place stores s in the table when this store owns it and the ID is within
// reach, in the overlay otherwise.
func (st *Store) place(s *Sequences) {
	e := int(s.Entity)
	if !st.ownsBase || e < 0 || e >= st.tableReach() {
		st.overlay[s.Entity] = s
		return
	}
	if e >= len(st.base) {
		st.base = append(st.base, make([]*Sequences, e+1-len(st.base))...)
	}
	if st.base[e] == nil {
		st.baseLen++
	}
	st.base[e] = s
}

// heapGet resolves an entity through the two in-heap layers: an overlay
// probe, skipped while the overlay is empty, then one indexed load.
func (st *Store) heapGet(e EntityID) *Sequences {
	if len(st.overlay) != 0 {
		if s, ok := st.overlay[e]; ok {
			return s
		}
	}
	if uint(e) < uint(len(st.base)) {
		return st.base[e]
	}
	return nil
}

// Get returns the sequences of an entity, or nil if absent.
func (st *Store) Get(e EntityID) *Sequences {
	if s := st.heapGet(e); s != nil || st.backing == nil {
		return s
	}
	return st.backing.Get(e)
}

// Clone returns a flat copy — a fresh table and overlay resolving both
// layers, sharing the *Sequences values. Put/AddRecords on the clone never
// disturb the original. Overlay entries the table can now hold move into it.
// Cost is O(|E|); Derive is the O(dirty) alternative.
func (st *Store) Clone() *Store {
	cp := &Store{
		ix:       st.ix,
		base:     slices.Clone(st.base),
		baseLen:  st.baseLen,
		ownsBase: true,
		overlay:  make(map[EntityID]*Sequences),
		ids:      slices.Concat(st.baseIDs, st.ids),
		backing:  st.backing,
		n:        st.n,
	}
	for _, s := range st.overlay {
		cp.place(s)
	}
	return cp
}

// Derive returns a copy-on-write child sharing this store's entries: reads
// fall through to the shared frozen table, writes land in the child's
// private overlay. The receiver is frozen from here on (Put panics) — the
// copy-on-write seam the root package's incremental Refresh derives new
// index snapshots through. Cost is O(|overlay|), not O(|E|); see the Store
// comment for the layering and compaction rules.
func (st *Store) Derive() *Store {
	st.frozen = true
	d := &Store{ix: st.ix, base: st.base, baseLen: st.baseLen, overlay: maps.Clone(st.overlay), backing: st.backing, n: st.n}
	switch {
	case st.ownsBase:
		// This store's table becomes the child's frozen base; only the
		// entries the table could not hold are copied.
		d.baseIDs = st.ids
	case OverlayNeedsCompaction(len(st.overlay), st.baseLen):
		// Fold both layers into a fresh root so the overlay stays small and
		// future derives start from it.
		return st.Clone().Derive()
	default:
		d.ids, d.baseIDs = slices.Clone(st.ids), st.baseIDs
	}
	return d
}

// Len returns the number of entities (|E|).
func (st *Store) Len() int { return st.n }

// Entities returns entity IDs in insertion order: backing first (its file
// order), then the earlier generations' inserts, then this store's own. For
// an unbacked root store the slice is shared — do not modify; other shapes
// allocate the concatenation.
func (st *Store) Entities() []EntityID {
	if st.ownsBase && st.backing == nil {
		return st.ids
	}
	out := make([]EntityID, 0, st.n)
	if st.backing != nil {
		out = append(out, st.backing.Entities()...)
	}
	out = append(out, st.baseIDs...)
	return append(out, st.ids...)
}

// AddRecords builds and stores the sequence of one entity from raw records.
func (st *Store) AddRecords(e EntityID, recs []Record) *Sequences {
	s := NewSequences(st.ix, e, recs)
	st.Put(s)
	return s
}
