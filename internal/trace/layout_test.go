package trace

import (
	"fmt"
	"maps"
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

// mapBacking is a Backing over a plain map, in a fixed entity order.
type mapBacking struct {
	seqs map[EntityID]*Sequences
	ids  []EntityID
}

func (b *mapBacking) Get(e EntityID) *Sequences { return b.seqs[e] }
func (b *mapBacking) Has(e EntityID) bool       { _, ok := b.seqs[e]; return ok }
func (b *mapBacking) Entities() []EntityID      { return b.ids }

// storeModel is what a Store must behave like: a map plus first-insertion
// order.
type storeModel struct {
	seqs  map[EntityID]*Sequences
	order []EntityID
}

func (m *storeModel) put(s *Sequences) {
	if _, ok := m.seqs[s.Entity]; !ok {
		m.order = append(m.order, s.Entity)
	}
	m.seqs[s.Entity] = s
}

func (m *storeModel) clone() *storeModel {
	return &storeModel{seqs: maps.Clone(m.seqs), order: slices.Clone(m.order)}
}

// TestStoreMatchesMapModel drives Put/Get/Derive/Clone/Entities/Len at
// random, many generations deep and across the compaction threshold, with
// and without a Backing, over dense, negative, sparse and huge entity IDs,
// and checks every live generation against a plain-map model after each
// step — so a write leaking into a frozen parent or a sibling shows up.
func TestStoreMatchesMapModel(t *testing.T) {
	ix := fixture411(t)
	seq := func(e EntityID, stamp int) *Sequences {
		return NewSequences(ix, e, []Record{{Entity: e, Base: spindex.BaseID(stamp % 4), Start: Time(stamp), End: Time(stamp) + 1}})
	}
	probes := []EntityID{-7, -1, 0, 1, 2, 3, 5, 40, 41, 199, 200, 5000, 1 << 20, 1 << 30}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomID := func() EntityID {
			switch rng.Intn(10) {
			case 0:
				return probes[rng.Intn(len(probes))]
			case 1:
				return EntityID(-1 - rng.Intn(3))
			default:
				return EntityID(rng.Intn(60)) // dense: collides often, so replacements are common
			}
		}
		st, model := NewStore(ix), &storeModel{seqs: map[EntityID]*Sequences{}}
		if seed%2 == 1 {
			b := &mapBacking{seqs: map[EntityID]*Sequences{}}
			for _, e := range []EntityID{2, 0, 41, 1 << 20, -1} {
				b.seqs[e], b.ids = seq(e, 0), append(b.ids, e)
				model.put(b.seqs[e])
			}
			st = NewBackedStore(ix, b)
		}
		type generation struct {
			st     *Store
			model  *storeModel
			frozen bool
		}
		gens := []*generation{{st: st, model: model}}
		check := func(step int) {
			t.Helper()
			for gi, g := range gens {
				if g.st.Len() != len(g.model.seqs) {
					t.Fatalf("seed %d step %d gen %d: Len = %d, want %d", seed, step, gi, g.st.Len(), len(g.model.seqs))
				}
				if got := g.st.Entities(); !slices.Equal(got, g.model.order) {
					t.Fatalf("seed %d step %d gen %d: Entities = %v, want %v", seed, step, gi, got, g.model.order)
				}
				for _, e := range g.model.order {
					if g.st.Get(e) != g.model.seqs[e] {
						t.Fatalf("seed %d step %d gen %d: Get(%d) is not the last Put", seed, step, gi, e)
					}
				}
				for _, e := range probes {
					if _, ok := g.model.seqs[e]; !ok && g.st.Get(e) != nil {
						t.Fatalf("seed %d step %d gen %d: Get(%d) found an entity never put", seed, step, gi, e)
					}
				}
				if g.st.ownsBase {
					for e := range g.st.overlay {
						if e >= 0 && int(e) < g.st.tableReach() {
							t.Fatalf("seed %d step %d gen %d: root overlay holds %d, within the table's reach %d", seed, step, gi, e, g.st.tableReach())
						}
					}
				}
			}
		}
		for step := 0; step < 250; step++ {
			g := gens[rng.Intn(len(gens))]
			switch op := rng.Intn(12); {
			case op < 8:
				s := seq(randomID(), step)
				if g.frozen {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("seed %d step %d: Put on a frozen store did not panic", seed, step)
							}
						}()
						g.st.Put(s)
					}()
					continue
				}
				g.st.Put(s)
				g.model.put(s)
			case op < 10:
				g.frozen = true
				gens = append(gens, &generation{st: g.st.Derive(), model: g.model.clone()})
			default:
				gens = append(gens, &generation{st: g.st.Clone(), model: g.model.clone()})
			}
			if len(gens) > 6 { // keep the newest few: chains get deep, checks stay cheap
				gens = gens[len(gens)-6:]
			}
			check(step)
		}
	}
}

// TestStoreTableStaysProportionalToPopulation: IDs the dense table cannot
// hold cheaply live in the overlay, so three entities cost three entries no
// matter how large or negative their IDs are, through Derive and Clone too.
func TestStoreTableStaysProportionalToPopulation(t *testing.T) {
	ix := fixture411(t)
	build := func() *Store {
		st := NewStore(ix)
		for _, e := range []EntityID{-1, 5, 1 << 30} {
			st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
		}
		return st
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := build()
	shapes := map[string]*Store{"root": st, "clone": st.Clone(), "derived": st.Derive()}
	shapes["derived twice"] = shapes["derived"].Derive()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("three entities allocated %d bytes across four store shapes", grew)
	}
	for name, s := range shapes {
		if len(s.base) > 64 {
			t.Errorf("%s: table has %d slots for IDs {-1, 5, 1<<30}", name, len(s.base))
		}
		for _, e := range []EntityID{-1, 5, 1 << 30} {
			if s.Get(e) == nil {
				t.Errorf("%s: lost entity %d", name, e)
			}
		}
		if s.Len() != 3 || fmt.Sprint(s.Entities()) != fmt.Sprint([]EntityID{-1, 5, 1 << 30}) {
			t.Errorf("%s: Len %d, Entities %v", name, s.Len(), s.Entities())
		}
	}
}

// TestStoreOverlayDrainsIntoTable: an ID that arrives before the population
// justifies a table slot waits in the overlay only until the table's reach
// passes it, whatever the arrival order — so Get stays an indexed load and
// the first Derive has nothing to copy.
func TestStoreOverlayDrainsIntoTable(t *testing.T) {
	ix := fixture411(t)
	const n = 400
	orders := map[string]func(i int) EntityID{
		"descending":       func(i int) EntityID { return EntityID(n - 1 - i) },
		"late block first": func(i int) EntityID { return EntityID((i + n/2) % n) },
		"gaps, then fill":  func(i int) EntityID { return EntityID((3 * i) % n) }, // 0,3,6,… then 2,5,… then 1,4,…
	}
	for name, id := range orders {
		st, waited := NewStore(ix), 0
		for i := 0; i < n; i++ {
			e := id(i)
			st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
			waited = max(waited, len(st.overlay))
		}
		if waited == 0 {
			t.Errorf("%s: no ID ever waited in the overlay; the order exercises nothing", name)
		}
		if len(st.overlay) != 0 || st.baseLen != n {
			t.Errorf("%s: %d of %d entities left in the overlay, %d in the table", name, len(st.overlay), n, st.baseLen)
		}
		if len(st.base) > st.tableReach() {
			t.Errorf("%s: table has %d slots for %d entities", name, len(st.base), n)
		}
		if d := st.Derive(); len(d.overlay) != 0 || d.Len() != n {
			t.Errorf("%s: Derive copied %d overlay entries, Len %d", name, len(d.overlay), d.Len())
		}
	}
}
