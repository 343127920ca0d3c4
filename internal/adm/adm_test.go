package adm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

func fixtureIndex(t testing.TB) *spindex.Index {
	t.Helper()
	return spindex.NewUniform(3, []int{3, 4})
}

func randomSeq(rng *rand.Rand, ix *spindex.Index, e trace.EntityID) *trace.Sequences {
	var recs []trace.Record
	for i := 0; i < 1+rng.Intn(12); i++ {
		st := trace.Time(rng.Intn(30))
		recs = append(recs, trace.Record{
			Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())),
			Start: st, End: st + 1 + trace.Time(rng.Intn(4)),
		})
	}
	return trace.NewSequences(ix, e, recs)
}

func allMeasures(t testing.TB, levels int) []Measure {
	t.Helper()
	paper, err := NewPaperADM(levels, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	paper55, err := NewPaperADM(levels, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := NewJaccardADM(levels)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, levels)
	for i := range w {
		w[i] = float64(i + 1)
	}
	lin, err := NewLevelWeighted("linear", Dice, w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	return []Measure{paper, paper55, jac, lin}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewLevelWeighted("x", Dice, nil, 1, true); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewLevelWeighted("x", Dice, []float64{1}, 0.5, true); err == nil {
		t.Error("v<1 accepted")
	}
	if _, err := NewLevelWeighted("x", Dice, []float64{-1, 1}, 1, true); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewLevelWeighted("x", Dice, []float64{0, 0}, 1, true); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewPaperADM(0, 2, 2); err == nil {
		t.Error("0 levels accepted")
	}
	if _, err := NewJaccardADM(0); err == nil {
		t.Error("0 levels accepted")
	}
}

func TestKindString(t *testing.T) {
	if Dice.String() != "dice" || Jaccard.String() != "jaccard" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// TestSelfDegreeIsOne: normalized measures score deg(e,e) = 1 (the
// normalization property of Section 3.2).
func TestSelfDegreeIsOne(t *testing.T) {
	ix := fixtureIndex(t)
	rng := rand.New(rand.NewSource(5))
	for _, m := range allMeasures(t, 3) {
		for trial := 0; trial < 10; trial++ {
			s := randomSeq(rng, ix, trace.EntityID(trial))
			if got := m.Degree(s, s); math.Abs(got-1) > 1e-12 {
				t.Errorf("%s: deg(e,e) = %v, want 1", m.Name(), got)
			}
		}
	}
}

// TestNormalizationAndSymmetry: deg ∈ [0,1] and deg(a,b) = deg(b,a) for
// random pairs — the first §3.2 constraint.
func TestNormalizationAndSymmetry(t *testing.T) {
	ix := fixtureIndex(t)
	measures := allMeasures(t, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSeq(rng, ix, 0)
		b := randomSeq(rng, ix, 1)
		for _, m := range measures {
			ab := m.Degree(a, b)
			if ab < 0 || ab > 1 {
				return false
			}
			if math.Abs(ab-m.Degree(b, a)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicityUnderContainment checks the §3.2 monotonicity constraint:
// if Pc ⊆ Pb ⊆ Pa then deg(a,b) ≥ deg(a,c). We build c as a random subset
// of b, itself a random subset of a.
func TestMonotonicityUnderContainment(t *testing.T) {
	ix := fixtureIndex(t)
	measures := allMeasures(t, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSeq(rng, ix, 0)
		base := a.Base()
		if len(base) < 2 {
			return true
		}
		var bCells, cCells []trace.Cell
		for _, cell := range base {
			r := rng.Float64()
			if r < 0.7 {
				bCells = append(bCells, cell)
				if r < 0.4 {
					cCells = append(cCells, cell)
				}
			}
		}
		if len(bCells) == 0 || len(cCells) == 0 {
			return true
		}
		b := trace.NewSequencesFromCells(ix, 1, bCells)
		c := trace.NewSequencesFromCells(ix, 2, cCells)
		for _, m := range measures {
			if m.Degree(a, b) < m.Degree(a, c)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTotalOrderProperty spot-checks the §3.2 total-order conclusion:
// with F(Pb) ≤ F(Pc) and F(Pab) ≥ F(Pac), deg(a,b) ≥ deg(a,c).
// In count form: same query sizes, larger overlap and smaller candidate at
// every level must not score lower.
func TestTotalOrderProperty(t *testing.T) {
	for _, m := range allMeasures(t, 3) {
		q := []int{10, 12, 15}
		hi := m.DegreeFromCounts([]int{4, 5, 6}, q, []int{8, 9, 10})
		lo := m.DegreeFromCounts([]int{3, 4, 5}, q, []int{9, 11, 12})
		if hi < lo {
			t.Errorf("%s: dominant overlap scored lower (%v < %v)", m.Name(), hi, lo)
		}
	}
}

// TestUpperBoundAdmissible: UpperBound with the exact overlap counts must
// dominate the exact degree (Theorem 4 with the tightest surviving set), and
// must be monotone in the surviving counts.
func TestUpperBoundAdmissible(t *testing.T) {
	ix := fixtureIndex(t)
	measures := allMeasures(t, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSeq(rng, ix, 0)
		b := randomSeq(rng, ix, 1)
		overlap := trace.OverlapDurations(a, b)
		qSize := make([]int, 3)
		bSize := make([]int, 3)
		loose := make([]int, 3)
		for l := 1; l <= 3; l++ {
			qSize[l-1] = a.Size(l)
			bSize[l-1] = b.Size(l)
			loose[l-1] = overlap[l-1] + rng.Intn(3)
			if loose[l-1] > qSize[l-1] {
				loose[l-1] = qSize[l-1]
			}
		}
		for _, m := range measures {
			deg := m.Degree(a, b)
			tight := m.UpperBound(overlap, qSize, nil)
			if tight < deg-1e-12 {
				return false
			}
			if m.UpperBound(loose, qSize, nil) < tight-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSizedUpperBoundAdmissible is Theorem 4 with the candidate's sizes, as a
// property over random sequence pairs: for every x at or above the true
// per-level overlap, UpperBound(x, |A|, |B|) dominates Degree(a, b) — with
// every size known, with some levels unknown (negative), and with none (nil)
// — never exceeds the size-free bound, and the size-free bound is the formula
// it always was, bit for bit.
func TestSizedUpperBoundAdmissible(t *testing.T) {
	ix := fixtureIndex(t)
	var measures []*LevelWeighted
	for _, kind := range []Kind{Dice, Jaccard} {
		for _, v := range []float64{1, 1.5, 2, 3} {
			for _, norm := range []bool{true, false} {
				m, err := NewLevelWeighted("sized", kind, []float64{1, 4, 9}, v, norm)
				if err != nil {
					t.Fatal(err)
				}
				measures = append(measures, m)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		a, b := randomSeq(rng, ix, 0), randomSeq(rng, ix, 1)
		if trial%5 == 0 {
			b = a // the self pair: every bound is tight somewhere
		}
		overlap := trace.OverlapDurations(a, b)
		x, qSize, bSize, some := make([]int, 3), make([]int, 3), make([]int, 3), make([]int, 3)
		for l := range x {
			x[l] = overlap[l] + rng.Intn(3)*rng.Intn(2)
			qSize[l], bSize[l] = a.Size(l+1), b.Size(l+1)
			some[l] = bSize[l]
			if rng.Intn(3) == 0 {
				some[l] = -1
			}
		}
		for _, m := range measures {
			deg, free := m.Degree(a, b), m.UpperBound(x, qSize, nil)
			if free != sizeFreeBound(m, x, qSize) {
				t.Fatalf("%v v=%v: size-free bound %v, the formula gives %v", m.kind, m.v, free, sizeFreeBound(m, x, qSize))
			}
			for _, sizes := range [][]int{bSize, some, {-1, -1, -1}} {
				ub := m.UpperBound(x, qSize, sizes)
				if ub < deg || ub > free {
					t.Fatalf("%v v=%v norm=%v x=%v q=%v b=%v: bound %v outside [degree %v, size-free %v]", m.kind, m.v, m.norm, x, qSize, sizes, ub, deg, free)
				}
			}
		}
	}
}

// sizeFreeBound is the bound before candidates' sizes were known: per level
// x/(x+q) for Dice and min(x/q, 1) for Jaccard.
func sizeFreeBound(m *LevelWeighted, x, q []int) float64 {
	score := 0.0
	for l, w := range m.weights {
		var r float64
		switch {
		case m.kind == Dice && x[l]+q[l] > 0:
			r = float64(x[l]) / float64(x[l]+q[l])
		case m.kind == Jaccard && q[l] > 0:
			r = min(float64(x[l])/float64(q[l]), 1)
		}
		score += w * m.pow(r)
	}
	return score / m.norm
}

// TestUpperBoundFullSurvival: with all query cells surviving, the bound must
// reach the measure's maximum (1 for normalized measures), matching the
// root-node initialization of Algorithm 2.
func TestUpperBoundFullSurvival(t *testing.T) {
	q := []int{5, 9, 20}
	for _, m := range allMeasures(t, 3) {
		if got := m.UpperBound(q, q, nil); got < 1-1e-12 {
			t.Errorf("%s: full-survival UB = %v, want 1", m.Name(), got)
		}
	}
}

// TestExampleMeasure521 evaluates the Example 5.2.1 measure on the thesis'
// entities: deg = 0.1·dice¹ + 0.9·dice². For ea vs ec (sharing T2L5 at
// level 1 and T2L1 at level 2): 0.1·(1/4) + 0.9·(1/4) = 0.25.
// (The thesis prints 0.15; from its own Tables 4.1-4.2 the value is 0.25 —
// each level shares exactly 1 of 2+2 cells.)
func TestExampleMeasure521(t *testing.T) {
	b := spindex.NewBuilder(2)
	l5 := b.AddRoot()
	l6 := b.AddRoot()
	b.AddChild(l5)
	b.AddChild(l5)
	b.AddChild(l6)
	b.AddChild(l6)
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(e trace.EntityID, cells ...[2]int) *trace.Sequences {
		var base []trace.Cell
		for _, c := range cells {
			base = append(base, trace.MakeCell(trace.Time(c[0]), ix.BaseUnit(spindex.BaseID(c[1]))))
		}
		return trace.NewSequencesFromCells(ix, e, base)
	}
	ea := mk(0, [2]int{0, 1}, [2]int{1, 0}) // T1L2, T2L1
	ec := mk(2, [2]int{0, 2}, [2]int{1, 0}) // T1L3, T2L1
	m := NewDiceExample()
	if got := m.Degree(ea, ec); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("deg(ea,ec) = %v, want 0.25", got)
	}
	// Unnormalized: self-degree is 0.5·(0.1+0.9) = 0.5.
	if got := m.Degree(ea, ea); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("deg(ea,ea) = %v, want 0.5 (unnormalized Dice)", got)
	}
	if m.Levels() != 2 || m.Kind() != Dice {
		t.Error("example measure metadata mismatch")
	}
}

// TestPaperADMFavorsFinerLevels: with weights l^u, overlap at a finer level
// contributes more than the same overlap at a coarser level — the second
// §3.2 property (higher score for AjPIs at finer spatial units).
func TestPaperADMFavorsFinerLevels(t *testing.T) {
	m, err := NewPaperADM(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := []int{4, 4, 4}
	s := []int{6, 6, 6}
	fine := m.DegreeFromCounts([]int{0, 0, 2}, q, s)
	coarse := m.DegreeFromCounts([]int{2, 0, 0}, q, s)
	if fine <= coarse {
		t.Errorf("fine-level overlap %v should outscore coarse-level %v", fine, coarse)
	}
	// And longer duration at the same level scores higher.
	long := m.DegreeFromCounts([]int{0, 0, 3}, q, s)
	if long <= fine {
		t.Errorf("longer overlap %v should outscore shorter %v", long, fine)
	}
}

func TestDegreePanicsOnLevelMismatch(t *testing.T) {
	ix := fixtureIndex(t) // 3 levels
	m, err := NewPaperADM(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.NewSequencesFromCells(ix, 0, []trace.Cell{trace.MakeCell(0, ix.BaseUnit(0))})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on level mismatch")
		}
	}()
	m.Degree(s, s)
}

func TestEmptySequencesDegree(t *testing.T) {
	ix := fixtureIndex(t)
	empty := trace.NewSequencesFromCells(ix, 0, nil)
	other := trace.NewSequencesFromCells(ix, 1, []trace.Cell{trace.MakeCell(0, ix.BaseUnit(0))})
	for _, m := range allMeasures(t, 3) {
		if got := m.Degree(empty, other); got != 0 {
			t.Errorf("%s: deg(∅, b) = %v, want 0", m.Name(), got)
		}
		if got := m.Degree(empty, empty); got != 0 {
			t.Errorf("%s: deg(∅, ∅) = %v, want 0", m.Name(), got)
		}
	}
}
