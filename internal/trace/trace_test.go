package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"digitaltraces/internal/spindex"
)

// fixture411 is the sp-index of Example 4.1.1: L5 = parent(L1, L2),
// L6 = parent(L3, L4), m = 2. Base ordinals: L1=0, L2=1, L3=2, L4=3.
func fixture411(t *testing.T) *spindex.Index {
	t.Helper()
	b := spindex.NewBuilder(2)
	l5 := b.AddRoot()
	l6 := b.AddRoot()
	b.AddChild(l5) // L1
	b.AddChild(l5) // L2
	b.AddChild(l6) // L3
	b.AddChild(l6) // L4
	ix, err := b.Build()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	return ix
}

func TestCellPacking(t *testing.T) {
	c := MakeCell(42, 17)
	if c.Time() != 42 || c.Unit() != 17 {
		t.Fatalf("roundtrip: got (%d,%d), want (42,17)", c.Time(), c.Unit())
	}
	if got := c.String(); got != "t42·u17" {
		t.Errorf("String = %q", got)
	}
	// Cells order by time first.
	if MakeCell(1, 999) >= MakeCell(2, 0) {
		t.Error("cells must order by time before unit")
	}
	f := func(tm int32, u int32) bool {
		c := MakeCell(Time(tm), spindex.UnitID(u))
		return c.Time() == Time(tm) && c.Unit() == spindex.UnitID(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExample411 reproduces Example 4.1.1 exactly: entity ea present at L3
// during T1 and L1 during T2 yields seq² = {T1L3, T2L1} and
// seq¹ = {T1L6, T2L5}.
func TestExample411(t *testing.T) {
	ix := fixture411(t)
	const T1, T2 = 1, 2
	recs := []Record{
		{Entity: 0, Base: 2, Start: T1, End: T1 + 1}, // L3 at T1
		{Entity: 0, Base: 0, Start: T2, End: T2 + 1}, // L1 at T2
	}
	s := NewSequences(ix, 0, recs)
	if err := s.Validate(ix); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	l3 := ix.BaseUnit(2)
	l1 := ix.BaseUnit(0)
	l6 := ix.Parent(l3)
	l5 := ix.Parent(l1)
	wantBase := []Cell{MakeCell(T1, l3), MakeCell(T2, l1)}
	if !reflect.DeepEqual(s.At(2), wantBase) {
		t.Errorf("seq² = %v, want %v", s.At(2), wantBase)
	}
	wantTop := []Cell{MakeCell(T1, l6), MakeCell(T2, l5)}
	if !reflect.DeepEqual(s.At(1), wantTop) {
		t.Errorf("seq¹ = %v, want %v", s.At(1), wantTop)
	}
}

func TestSequencesDedupAndOverlap(t *testing.T) {
	ix := fixture411(t)
	// Two overlapping records at the same base produce deduplicated cells.
	recs := []Record{
		{Entity: 7, Base: 1, Start: 0, End: 3},
		{Entity: 7, Base: 1, Start: 2, End: 5},
		{Entity: 7, Base: 0, Start: 2, End: 3}, // sibling: same parent cell at t=2
	}
	s := NewSequences(ix, 7, recs)
	if got := s.Size(2); got != 6 {
		t.Errorf("base cells = %d, want 6 (5 at L2 + 1 at L1)", got)
	}
	// At level 1, t=2 maps both bases to L5 → single cell; total 5 cells.
	if got := s.Size(1); got != 5 {
		t.Errorf("level-1 cells = %d, want 5", got)
	}
	if s.TotalCells() != 11 {
		t.Errorf("TotalCells = %d, want 11", s.TotalCells())
	}
}

func TestPresenceInstancesRoundTrip(t *testing.T) {
	ix := fixture411(t)
	recs := []Record{
		{Entity: 3, Base: 2, Start: 4, End: 8},
		{Entity: 3, Base: 2, Start: 10, End: 11},
		{Entity: 3, Base: 3, Start: 4, End: 6},
	}
	s := NewSequences(ix, 3, recs)
	pis := s.PresenceInstances(2)
	want := []PresenceInstance{
		{Entity: 3, Unit: ix.BaseUnit(2), Start: 4, End: 8},
		{Entity: 3, Unit: ix.BaseUnit(2), Start: 10, End: 11},
		{Entity: 3, Unit: ix.BaseUnit(3), Start: 4, End: 6},
	}
	if !reflect.DeepEqual(pis, want) {
		t.Errorf("PresenceInstances(2) = %v, want %v", pis, want)
	}
	// Level 1: L3 and L4 share parent L6, so [4,8) ∪ [4,6) ∪ [10,11) at L6
	// coalesce to [4,8) and [10,11).
	pis1 := s.PresenceInstances(1)
	l6 := ix.Parent(ix.BaseUnit(2))
	want1 := []PresenceInstance{
		{Entity: 3, Unit: l6, Start: 4, End: 8},
		{Entity: 3, Unit: l6, Start: 10, End: 11},
	}
	if !reflect.DeepEqual(pis1, want1) {
		t.Errorf("PresenceInstances(1) = %v, want %v", pis1, want1)
	}
	if d := pis1[0].Duration(); d != 4 {
		t.Errorf("Duration = %d, want 4", d)
	}
	if lv := pis1[0].Level(ix); lv != 1 {
		t.Errorf("Level = %d, want 1", lv)
	}
}

func TestAdjoint(t *testing.T) {
	ix := fixture411(t)
	// a at L1 during [0,4); b at L2 during [2,6). Different bases, same
	// parent L5 → AjPI only at level 1, period [2,4).
	a := NewSequences(ix, 0, []Record{{Entity: 0, Base: 0, Start: 0, End: 4}})
	b := NewSequences(ix, 1, []Record{{Entity: 1, Base: 1, Start: 2, End: 6}})
	got := Adjoint(a, b)
	l5 := ix.Parent(ix.BaseUnit(0))
	want := []AjPI{{A: 0, B: 1, Unit: l5, Level: 1, Start: 2, End: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Adjoint = %v, want %v", got, want)
	}
	if got[0].Duration() != 2 {
		t.Errorf("Duration = %d, want 2", got[0].Duration())
	}
	if !SharesAt(a, b, 1) || SharesAt(a, b, 2) {
		t.Error("SharesAt: want level-1 sharing only")
	}
	if d := OverlapDurations(a, b); d[0] != 2 || d[1] != 0 {
		t.Errorf("OverlapDurations = %v, want [2 0]", d)
	}
}

func TestAdjointFinerImpliesCoarser(t *testing.T) {
	ix := fixture411(t)
	// Same base, overlapping time: AjPIs at both levels, finer ⊆ coarser.
	a := NewSequences(ix, 0, []Record{{Entity: 0, Base: 3, Start: 5, End: 9}})
	b := NewSequences(ix, 1, []Record{{Entity: 1, Base: 3, Start: 7, End: 12}})
	d := OverlapDurations(a, b)
	if d[1] != 2 {
		t.Errorf("level-2 overlap = %d, want 2", d[1])
	}
	if d[0] < d[1] {
		t.Errorf("coarser overlap %d < finer overlap %d: finer AjPIs must imply coarser", d[0], d[1])
	}
}

func TestValidateRecords(t *testing.T) {
	ix := fixture411(t)
	good := []Record{{Entity: 0, Base: 0, Start: 0, End: 2}}
	if i, err := ValidateRecords(ix, 10, good); err != nil || i != -1 {
		t.Errorf("good records rejected: %d %v", i, err)
	}
	cases := []Record{
		{Entity: 0, Base: 9, Start: 0, End: 1},  // base out of range
		{Entity: 0, Base: 0, Start: 3, End: 3},  // empty span
		{Entity: 0, Base: 0, Start: 8, End: 11}, // beyond horizon
		{Entity: 0, Base: -1, Start: 0, End: 1}, // negative base
	}
	for i, bad := range cases {
		if _, err := ValidateRecords(ix, 10, []Record{bad}); err == nil {
			t.Errorf("case %d: bad record accepted: %+v", i, bad)
		}
	}
}

func TestSortRecords(t *testing.T) {
	recs := []Record{
		{Entity: 2, Base: 0, Start: 5, End: 6},
		{Entity: 1, Base: 3, Start: 9, End: 10},
		{Entity: 1, Base: 1, Start: 2, End: 3},
		{Entity: 1, Base: 0, Start: 2, End: 3},
	}
	SortRecords(recs)
	want := []Record{
		{Entity: 1, Base: 0, Start: 2, End: 3},
		{Entity: 1, Base: 1, Start: 2, End: 3},
		{Entity: 1, Base: 3, Start: 9, End: 10},
		{Entity: 2, Base: 0, Start: 5, End: 6},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("SortRecords = %v, want %v", recs, want)
	}
}

func TestStore(t *testing.T) {
	ix := fixture411(t)
	st := NewStore(ix)
	if st.Len() != 0 {
		t.Fatal("new store not empty")
	}
	s := st.AddRecords(0, []Record{{Entity: 0, Base: 0, Start: 0, End: 1}})
	if st.Get(0) != s {
		t.Error("Get after AddRecords mismatch")
	}
	if st.Get(1) != nil || st.Get(-1) != nil {
		t.Error("Get of absent entity should be nil")
	}
	// Replacement keeps Len stable.
	st.Put(NewSequences(ix, 0, []Record{{Entity: 0, Base: 1, Start: 0, End: 1}}))
	if st.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", st.Len())
	}
	if got := st.Entities(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Entities = %v", got)
	}
	if st.Index() != ix {
		t.Error("Index() mismatch")
	}
}

// TestStorePutRefusesNonDenseID: a Put of an ID that is neither held nor the
// next one panics with both IDs named, and leaves the store as it was.
func TestStorePutRefusesNonDenseID(t *testing.T) {
	ix := fixture411(t)
	st := NewStore(ix)
	for e := range EntityID(3) {
		st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
	}
	for _, e := range []EntityID{4, 1000, -1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("entity %d,", e)) || !strings.Contains(msg, "next ID is 3") {
					t.Errorf("Put(%d) panicked with %q, want both IDs named", e, msg)
				}
			}()
			st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
		}()
		if st.Len() != 3 || st.Get(e) != nil {
			t.Errorf("refused Put(%d) changed the store: Len %d", e, st.Len())
		}
	}
}

// TestSequenceDerivationProperty: for random traces over a random uniform
// sp-index, every derived sequence passes Validate and level sizes never
// grow when coarsening (|seq^i| ≤ |seq^(i+1)|).
func TestSequenceDerivationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		fanout := make([]int, m-1)
		for i := range fanout {
			fanout[i] = 2 + rng.Intn(4)
		}
		ix := spindex.NewUniform(m, fanout)
		var recs []Record
		for i := 0; i < 1+rng.Intn(20); i++ {
			start := Time(rng.Intn(50))
			recs = append(recs, Record{
				Entity: 1,
				Base:   spindex.BaseID(rng.Intn(ix.NumBase())),
				Start:  start,
				End:    start + 1 + Time(rng.Intn(5)),
			})
		}
		s := NewSequences(ix, 1, recs)
		if s.Validate(ix) != nil {
			return false
		}
		for l := 1; l < m; l++ {
			if s.Size(l) > s.Size(l+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOverlapSymmetry: overlap durations are symmetric and bounded by the
// smaller sequence at each level.
func TestOverlapSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := spindex.NewUniform(3, []int{3, 3})
		gen := func(e EntityID) *Sequences {
			var recs []Record
			for i := 0; i < 1+rng.Intn(10); i++ {
				st := Time(rng.Intn(20))
				recs = append(recs, Record{Entity: e, Base: spindex.BaseID(rng.Intn(9)), Start: st, End: st + 1 + Time(rng.Intn(3))})
			}
			return NewSequences(ix, e, recs)
		}
		a, b := gen(0), gen(1)
		ab, ba := OverlapDurations(a, b), OverlapDurations(b, a)
		if !reflect.DeepEqual(ab, ba) {
			return false
		}
		for l := 1; l <= 3; l++ {
			if ab[l-1] > min(a.Size(l), b.Size(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionHelpers(t *testing.T) {
	a := []Cell{1, 3, 5, 7}
	b := []Cell{3, 4, 5, 9}
	if got := IntersectionSize(a, b); got != 2 {
		t.Errorf("IntersectionSize = %d, want 2", got)
	}
	if got := Intersection(a, b); !reflect.DeepEqual(got, []Cell{3, 5}) {
		t.Errorf("Intersection = %v, want [3 5]", got)
	}
	if got := Intersection(nil, b); got != nil {
		t.Errorf("Intersection(nil,b) = %v, want nil", got)
	}
	if IntersectionSize(a, nil) != 0 {
		t.Error("IntersectionSize with empty should be 0")
	}
}

func TestClone(t *testing.T) {
	ix := fixture411(t)
	s := NewSequences(ix, 9, []Record{{Entity: 9, Base: 0, Start: 0, End: 2}})
	c := s.Clone()
	if !reflect.DeepEqual(s.At(1), c.At(1)) || !reflect.DeepEqual(s.At(2), c.At(2)) {
		t.Fatal("clone differs")
	}
	c.At(2)[0] = MakeCell(99, 0)
	if reflect.DeepEqual(s.At(2), c.At(2)) {
		t.Error("clone shares storage with original")
	}
}

// TestStoreDerive: the copy-on-write derivation — shared reads, private
// writes, frozen parents, dense IDs, and the reseal.
func TestStoreDerive(t *testing.T) {
	ix := fixture411(t)
	st := NewStore(ix)
	for e := EntityID(0); e < 6; e++ {
		st.AddRecords(e, []Record{{Entity: e, Base: 0, Start: Time(e), End: Time(e) + 1}})
	}
	oldSeq := st.Get(2)

	d := st.Derive()
	if d.Len() != 6 || d.Get(2) != oldSeq {
		t.Fatalf("derived store lost shared entries: len=%d", d.Len())
	}
	// The first Derive starts an empty overlay over the shared table.
	if d.overlay.Writes() != 0 || d.owner || &d.table[0] != &st.table[0] {
		t.Fatalf("Derive started an overlay of %d writes or a table of its own", d.overlay.Writes())
	}
	// Writes in the child shadow the base and never reach the parent.
	d.AddRecords(2, []Record{{Entity: 2, Base: 1, Start: 10, End: 12}})
	d.AddRecords(6, []Record{{Entity: 6, Base: 2, Start: 1, End: 2}})
	if st.Get(2) != oldSeq {
		t.Fatal("child write mutated the frozen parent")
	}
	if st.Get(6) != nil {
		t.Fatal("child insert leaked into the frozen parent")
	}
	if d.Get(2) == oldSeq || d.Get(6) == nil {
		t.Fatal("child writes not visible in the child")
	}
	if d.Len() != 7 || st.Len() != 6 {
		t.Fatalf("Len: child %d (want 7), parent %d (want 6)", d.Len(), st.Len())
	}
	want := []EntityID{0, 1, 2, 3, 4, 5, 6}
	if got := d.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entities = %v, want %v", got, want)
	}
	// The parent is frozen: further Puts must refuse loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put on a frozen store did not panic")
			}
		}()
		st.AddRecords(6, []Record{{Entity: 6, Base: 0, Start: 0, End: 1}})
	}()

	// A long derive chain reseals — folds the overlay into a fresh base the
	// child writes in place — before its overlay outgrows the store, and
	// loses nothing: every entry, the IDs, the parents' reads.
	cur, reseals := d, 0
	for gen := 0; gen < 12; gen++ {
		next := cur.Derive()
		if next.owner {
			reseals++
			if len(next.table) != next.Len() {
				t.Fatalf("gen %d: resealed table of %d slots for %d entities", gen, len(next.table), next.Len())
			}
		}
		e := EntityID(7 + gen)
		want = append(want, e)
		next.AddRecords(e, []Record{{Entity: e, Base: 0, Start: 0, End: 1}})
		next.AddRecords(2, []Record{{Entity: 2, Base: 3, Start: Time(gen), End: Time(gen) + 1}})
		if w := next.overlay.Writes(); 2*w > next.Len()+4 {
			t.Fatalf("gen %d: overlay holds %d writes over %d entities", gen, w, next.Len())
		}
		cur = next
	}
	if reseals == 0 {
		t.Fatal("no Derive in the chain resealed")
	}
	if got := cur.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain Entities = %v, want %v", got, want)
	}
	if d.Get(18) != nil || d.Get(2) == cur.Get(2) {
		t.Fatal("the chain's writes leaked into the store it started from")
	}
	if cur.Len() != 7+12 {
		t.Fatalf("chain Len = %d, want %d", cur.Len(), 7+12)
	}
	for e := EntityID(0); e < 6; e++ {
		if cur.Get(e) == nil {
			t.Fatalf("chain lost base entity %d", e)
		}
	}
}
