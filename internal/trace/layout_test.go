package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"digitaltraces/internal/spindex"
)

// referenceSets derives the level sets the plain way: one separately built
// sorted set per level, each from the one below it.
func referenceSets(ix *spindex.Index, recs []Record) [][]Cell {
	m := ix.Height()
	sets := make([][]Cell, m)
	for _, r := range recs {
		for t := r.Start; t < r.End; t++ {
			sets[m-1] = append(sets[m-1], MakeCell(t, ix.BaseUnit(r.Base)))
		}
	}
	sets[m-1] = sortDedup(sets[m-1])
	for l := m - 1; l >= 1; l-- {
		for _, c := range sets[l] {
			sets[l-1] = append(sets[l-1], MakeCell(c.Time(), ix.Parent(c.Unit())))
		}
		sets[l-1] = sortDedup(sets[l-1])
	}
	return sets
}

// flatFromSets lays arbitrary level sets out flat, bypassing derivation, so
// tests can hold invalid sequences too.
func flatFromSets(e EntityID, sets [][]Cell) *Sequences {
	flat := make([]Cell, len(sets)+1)
	for l, set := range sets {
		flat[l] = Cell(len(flat))
		flat = append(flat, set...)
	}
	flat[len(sets)] = Cell(len(flat))
	return &Sequences{Entity: e, flat: flat}
}

// referenceInstances coalesces a sorted level set into presence instances
// ordered by (unit, start).
func referenceInstances(e EntityID, set []Cell) []PresenceInstance {
	byUnit := slices.Clone(set)
	slices.SortFunc(byUnit, func(a, b Cell) int {
		if a.Unit() != b.Unit() {
			return int(a.Unit()) - int(b.Unit())
		}
		return int(a.Time()) - int(b.Time())
	})
	var out []PresenceInstance
	for _, c := range byUnit {
		if n := len(out); n > 0 && out[n-1].Unit == c.Unit() && out[n-1].End == c.Time() {
			out[n-1].End++
			continue
		}
		out = append(out, PresenceInstance{Entity: e, Unit: c.Unit(), Start: c.Time(), End: c.Time() + 1})
	}
	return out
}

// TestFlatSequencesMatchReference drives every accessor of the flat layout
// against plain per-level slices, over random traces on random indexes.
func TestFlatSequencesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		fanout := make([]int, m-1)
		for i := range fanout {
			fanout[i] = 1 + rng.Intn(4)
		}
		ix := spindex.NewUniform(m, fanout)
		var recs []Record
		for i := rng.Intn(16); i > 0; i-- { // sometimes no records at all
			start := Time(rng.Intn(40))
			recs = append(recs, Record{Entity: 3, Base: spindex.BaseID(rng.Intn(ix.NumBase())), Start: start, End: start + 1 + Time(rng.Intn(4))})
		}
		want := referenceSets(ix, recs)
		total := 0
		for _, set := range want {
			total += len(set)
		}
		built := NewSequences(ix, 3, recs)
		merged := NewSequencesMerged(ix, 3, recs[:len(recs)/2], NewSequences(ix, 3, recs[len(recs)/2:]))
		for name, s := range map[string]*Sequences{
			"NewSequences":          built,
			"NewSequencesMerged":    merged,
			"NewSequencesFromCells": NewSequencesFromCells(ix, 3, want[m-1]),
			"Clone":                 built.Clone(),
		} {
			if s.Levels() != m || s.TotalCells() != total {
				t.Fatalf("seed %d %s: Levels/TotalCells = %d/%d, want %d/%d", seed, name, s.Levels(), s.TotalCells(), m, total)
			}
			if !slices.Equal(s.Base(), want[m-1]) {
				t.Fatalf("seed %d %s: Base = %v, want %v", seed, name, s.Base(), want[m-1])
			}
			for l := 1; l <= m; l++ {
				if !slices.Equal(s.At(l), want[l-1]) || s.Size(l) != len(want[l-1]) {
					t.Fatalf("seed %d %s: level %d = %v (size %d), want %v", seed, name, l, s.At(l), s.Size(l), want[l-1])
				}
				if got := s.PresenceInstances(l); !reflect.DeepEqual(got, referenceInstances(3, want[l-1])) {
					t.Fatalf("seed %d %s: PresenceInstances(%d) = %v, want %v", seed, name, l, got, referenceInstances(3, want[l-1]))
				}
				for _, c := range want[l-1] {
					if !s.Contains(l, c) {
						t.Fatalf("seed %d %s: level %d lacks %v", seed, name, l, c)
					}
				}
				for i := 0; i < 8; i++ {
					c := MakeCell(Time(rng.Intn(45)), spindex.UnitID(rng.Intn(ix.NumUnits())))
					if _, in := slices.BinarySearch(want[l-1], c); s.Contains(l, c) != in {
						t.Fatalf("seed %d %s: Contains(%d, %v) = %v, want %v", seed, name, l, c, !in, in)
					}
				}
			}
			if err := s.Validate(ix); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
		}
	}
}

// TestAtClipsCapacity: appending to one level's slice reallocates; it can
// never overwrite the level stored after it.
func TestAtClipsCapacity(t *testing.T) {
	ix := spindex.NewUniform(3, []int{2, 2})
	s := NewSequences(ix, 0, []Record{{Base: 0, Start: 0, End: 3}, {Base: 3, Start: 1, End: 2}})
	for l := 1; l < 3; l++ {
		next := slices.Clone(s.At(l + 1))
		grown := append(s.At(l), MakeCell(99, 0))
		if len(grown) != s.Size(l)+1 || !slices.Equal(s.At(l+1), next) {
			t.Fatalf("append to level %d altered level %d: %v, want %v", l, l+1, s.At(l+1), next)
		}
	}
}

// TestValidateRejectsBrokenDerivation: Validate sees through the flat layout
// to both halves of the invariant.
func TestValidateRejectsBrokenDerivation(t *testing.T) {
	ix := fixture411(t)
	good := referenceSets(ix, []Record{{Base: 0, Start: 0, End: 2}, {Base: 2, Start: 1, End: 2}})
	if err := flatFromSets(1, good).Validate(ix); err != nil {
		t.Fatalf("valid sets rejected: %v", err)
	}
	orphan := [][]Cell{good[0][1:], good[1]} // a base cell whose parent cell is gone
	if flatFromSets(1, orphan).Validate(ix) == nil {
		t.Error("missing parent cell accepted")
	}
	childless := [][]Cell{good[0], good[1][1:]} // a coarse cell no base cell derives
	if flatFromSets(1, childless).Validate(ix) == nil {
		t.Error("coarse cell without a child accepted")
	}
}

// sliceBacking is a Backing over a plain slice: entity e is seqs[e].
type sliceBacking []*Sequences

func (b sliceBacking) Get(e EntityID) *Sequences { return b[e] }
func (b sliceBacking) Len() int                  { return len(b) }

// TestStoreMatchesMapModel drives Put/Get/Derive/Entities/Len at random, many
// generations deep and across the reseal threshold, with and without a
// Backing, and checks every live generation against a model — a slice
// mapping each ID to its last Put — after each step — so a write leaking into a frozen parent or a sibling shows up. A Put
// replaces a held ID or appends the next one; any other ID (negative, one
// past the next, far beyond) panics naming both IDs and changes nothing. An
// owned table never outgrows the population.
func TestStoreMatchesMapModel(t *testing.T) {
	ix := fixture411(t)
	seq := func(e EntityID, stamp int) *Sequences {
		return NewSequences(ix, e, []Record{{Entity: e, Base: spindex.BaseID(stamp % 4), Start: Time(stamp), End: Time(stamp) + 1}})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, model := NewStore(ix), []*Sequences(nil)
		if seed%2 == 1 {
			var b sliceBacking
			for e := range EntityID(5) {
				b = append(b, seq(e, 0))
			}
			st, model = NewBackedStore(ix, b), slices.Clone(b)
		}
		type generation struct {
			st     *Store
			model  []*Sequences
			frozen bool
		}
		gens := []*generation{{st: st, model: model}}
		check := func(step int) {
			t.Helper()
			for gi, g := range gens {
				n := len(g.model)
				if g.st.Len() != n {
					t.Fatalf("seed %d step %d gen %d: Len = %d, want %d", seed, step, gi, g.st.Len(), n)
				}
				if got := g.st.Entities(); len(got) != n || n > 0 && (got[0] != 0 || got[n-1] != EntityID(n-1)) {
					t.Fatalf("seed %d step %d gen %d: Entities = %v, want 0..%d", seed, step, gi, got, n-1)
				}
				for e, s := range g.model {
					if g.st.Get(EntityID(e)) != s {
						t.Fatalf("seed %d step %d gen %d: Get(%d) is not the last Put", seed, step, gi, e)
					}
				}
				for _, e := range []EntityID{-1, EntityID(n), EntityID(n + 1), 1 << 30} {
					if g.st.Get(e) != nil {
						t.Fatalf("seed %d step %d gen %d: Get(%d) found an entity never put", seed, step, gi, e)
					}
				}
				if g.st.owner && len(g.st.table) > n {
					t.Fatalf("seed %d step %d gen %d: owned table of %d slots for %d entities", seed, step, gi, len(g.st.table), n)
				}
			}
		}
		mustPanic := func(step int, what string, put func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("seed %d step %d: %s did not panic", seed, step, what)
				}
			}()
			put()
		}
		for step := 0; step < 250; step++ {
			g := gens[rng.Intn(len(gens))]
			n := len(g.model)
			switch op := rng.Intn(14); {
			case op < 8:
				e := EntityID(n) // append …
				if n > 0 && rng.Intn(2) == 0 {
					e = EntityID(rng.Intn(n)) // … or replace, often
				}
				s := seq(e, step)
				if g.frozen {
					mustPanic(step, "Put on a frozen store", func() { g.st.Put(s) })
					continue
				}
				g.st.Put(s)
				if e == EntityID(n) {
					g.model = append(g.model, s)
				} else {
					g.model[e] = s
				}
			case op < 10:
				if !g.frozen {
					e := []EntityID{-1, EntityID(n + 1), EntityID(n + 2 + rng.Intn(50)), 1 << 30}[rng.Intn(4)]
					mustPanic(step, fmt.Sprintf("Put of entity %d into a store of %d", e, n), func() { g.st.Put(seq(e, step)) })
				}
			default:
				g.frozen = true
				gens = append(gens, &generation{st: g.st.Derive(), model: slices.Clone(g.model)})
			}
			if len(gens) > 6 { // keep the newest few: chains get deep, checks stay cheap
				gens = gens[len(gens)-6:]
			}
			check(step)
		}
	}
}

// TestStoreTableStaysProportionalToPopulation: the table is indexed by ID and
// IDs are 0..n−1, so three entities cost three slots in every store shape —
// root, derived, resealed, derived twice — and allocate next to nothing.
func TestStoreTableStaysProportionalToPopulation(t *testing.T) {
	ix := fixture411(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := NewStore(ix)
	for e := range EntityID(3) {
		st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
	}
	rewritten := st.Derive()
	for e := range EntityID(3) {
		rewritten.Put(st.Get(e))
	}
	shapes := map[string]*Store{"root": st, "derived": st.Derive(), "resealed": rewritten.Derive()}
	shapes["derived twice"] = shapes["derived"].Derive()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("three entities allocated %d bytes across four store shapes", grew)
	}
	if !shapes["resealed"].owner {
		t.Fatal("a derive over an overlay that outgrew the store did not reseal")
	}
	for name, s := range shapes {
		if len(s.table) != 3 {
			t.Errorf("%s: table has %d slots for IDs 0..2", name, len(s.table))
		}
		for e := range EntityID(3) {
			if s.Get(e) == nil {
				t.Errorf("%s: lost entity %d", name, e)
			}
		}
		if s.Len() != 3 || fmt.Sprint(s.Entities()) != fmt.Sprint([]EntityID{0, 1, 2}) {
			t.Errorf("%s: Len %d, Entities %v", name, s.Len(), s.Entities())
		}
	}
}

// TestStoreOverlayDrainsIntoTable: the writes a derived generation holds in
// its overlay — replacements and appended IDs alike — move into a fresh table
// at the reseal, whatever order they arrived in, so Get is an indexed load
// again and the next Derive starts an empty overlay over that table.
func TestStoreOverlayDrainsIntoTable(t *testing.T) {
	ix := fixture411(t)
	const n = 400
	orders := map[string]func(i int) EntityID{
		"descending":      func(i int) EntityID { return EntityID(n - 1 - i) },
		"strided":         func(i int) EntityID { return EntityID((7 * i) % n) },
		"appending first": func(i int) EntityID { return EntityID((i + n/2) % n) },
	}
	for name, id := range orders {
		root := NewStore(ix)
		for e := range EntityID(n / 2) {
			root.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
		}
		d, want := root.Derive(), map[EntityID]*Sequences{}
		for i := range n {
			e := id(i)
			if int(e) > d.Len() {
				continue // not the next ID yet: the order brings it back later
			}
			want[e] = d.AddRecords(e, []Record{{Entity: e, Base: spindex.BaseID(i % 4), Start: Time(i), End: Time(i) + 1}})
		}
		if d.owner || d.overlay.Writes() == 0 {
			t.Fatalf("%s: the writes never reached an overlay", name)
		}
		resealed := d.Derive()
		if !resealed.owner || resealed.overlay.Writes() != 0 || len(resealed.table) != d.Len() {
			t.Fatalf("%s: reseal left an overlay of %d writes, or a table of %d slots for %d entities", name, resealed.overlay.Writes(), len(resealed.table), d.Len())
		}
		for e, s := range want {
			if resealed.table[e] != s {
				t.Fatalf("%s: entity %d's last write did not drain into the table", name, e)
			}
		}
		if next := resealed.Derive(); next.overlay.Writes() != 0 || &next.table[0] != &resealed.table[0] || next.Len() != d.Len() {
			t.Errorf("%s: Derive after the reseal started an overlay of %d writes or a table of its own, Len %d", name, next.overlay.Writes(), next.Len())
		}
	}
}
