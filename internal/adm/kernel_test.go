package adm

import (
	"math"
	"math/rand"
	"testing"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// referenceDegree is the uncascaded definition: intersect every level, raise
// every ratio with math.Pow.
func referenceDegree(m *LevelWeighted, a, b *trace.Sequences) float64 {
	score := 0.0
	for l := 1; l <= len(m.weights); l++ {
		inter := trace.IntersectionSize(a.At(l), b.At(l))
		score += m.weights[l-1] * math.Pow(m.ratio(inter, a.Size(l), b.Size(l)), m.v)
	}
	return score / m.norm
}

// TestDegreeMatchesReferenceBitwise: the coarse-to-fine cascade and the
// multiplication shortcuts return the reference's exact bits, for both ratio
// kinds, shortcut and non-shortcut exponents, normalised and not, over valid
// sequences of every overlap shape.
func TestDegreeMatchesReferenceBitwise(t *testing.T) {
	ix := spindex.NewUniform(4, []int{3, 3, 4})
	rng := rand.New(rand.NewSource(7))
	at := func(e trace.EntityID, cells ...[2]int) *trace.Sequences {
		recs := make([]trace.Record, len(cells))
		for i, c := range cells {
			recs[i] = trace.Record{Entity: e, Base: spindex.BaseID(c[1]), Start: trace.Time(c[0]), End: trace.Time(c[0] + 1)}
		}
		return trace.NewSequences(ix, e, recs)
	}
	// Base 0 and base NumBase-1 meet only at the root; bases 0 and 1 are
	// siblings and part only at level 4.
	far := ix.NumBase() - 1
	pairs := [][2]*trace.Sequences{
		{at(0), at(1)},               // both empty
		{at(0), at(1, [2]int{3, 2})}, // one empty
		{at(0, [2]int{1, 0}, [2]int{2, 5}), at(1, [2]int{1, 0}, [2]int{2, 5})},     // identical
		{at(0, [2]int{1, 0}, [2]int{2, 5}), at(1, [2]int{7, 0}, [2]int{8, 5})},     // disjoint in time
		{at(0, [2]int{1, 0}, [2]int{2, 0}), at(1, [2]int{1, far}, [2]int{9, far})}, // level-1 overlap only
		{at(0, [2]int{1, 0}, [2]int{2, 0}), at(1, [2]int{1, 1}, [2]int{2, 1})},     // all but the base level
	}
	for i := 0; i < 300; i++ {
		pairs = append(pairs, [2]*trace.Sequences{randomSeq(rng, ix, 0), randomSeq(rng, ix, 1)})
	}
	weights := []float64{1, 4, 9, 16}
	for _, kind := range []Kind{Dice, Jaccard} {
		for _, v := range []float64{1, 1.5, 2, 3} {
			for _, normalize := range []bool{true, false} {
				m, err := NewLevelWeighted("t", kind, weights, v, normalize)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					for _, ab := range [][2]*trace.Sequences{{p[0], p[1]}, {p[1], p[0]}} {
						got, want := m.Degree(ab[0], ab[1]), referenceDegree(m, ab[0], ab[1])
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v v=%v normalize=%v pair %d: Degree = %x, reference = %x",
								kind, v, normalize, i, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestSquareMatchesPowBitwise: r*r and math.Pow(r, 2) are the same float64
// for every ratio i/n a level of up to 2048 cells can produce (and r itself
// equals math.Pow(r, 1)), which is what lets pow skip math.Pow.
func TestSquareMatchesPowBitwise(t *testing.T) {
	for n := 1; n <= 2048; n++ {
		for i := 0; i <= n; i++ {
			r := float64(i) / float64(n)
			if math.Float64bits(r*r) != math.Float64bits(math.Pow(r, 2)) {
				t.Fatalf("%d/%d: r*r = %x, Pow(r,2) = %x", i, n, math.Float64bits(r*r), math.Float64bits(math.Pow(r, 2)))
			}
			if math.Float64bits(r) != math.Float64bits(math.Pow(r, 1)) {
				t.Fatalf("%d/%d: r != Pow(r,1)", i, n)
			}
		}
	}
}
