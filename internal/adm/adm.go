// Package adm implements association degree measures (ADMs): the generic
// class of scoring functions of Section 3.2 of "Top-k Queries over Digital
// Traces" that quantify how closely two entities are associated given their
// digital traces.
//
// An ADM must be normalized to [0,1], monotone under trace containment, and
// totally ordered so that longer co-presence at finer spatial levels scores
// higher. The concrete family shipped here generalizes Eq 7.1 of the paper:
//
//	deg(ea, eb) = Σ_l w_l · r_l(ea,eb)^v / Norm,
//
// where r_l is a per-level set-similarity ratio (Dice |∩|/(|A|+|B|) or
// Jaccard |∩|/|A∪B|) over level-l ST-cells, w_l a per-level weight (l^u in
// the paper), and v ≥ 1 the duration exponent. All search algorithms in
// internal/core work for any Measure: they only require Degree and an
// admissible UpperBound (Theorem 4).
package adm

import (
	"fmt"
	"math"

	"digitaltraces/internal/trace"
)

// Measure is the pluggable association degree measure contract. The top-k
// search (internal/core) is correct for any implementation whose UpperBound
// is admissible: UpperBound(x, q) must dominate Degree(a, b) for every
// entity b whose per-level overlap with the query a is at most x.
type Measure interface {
	// Name identifies the measure in reports.
	Name() string
	// Levels returns m, the number of sp-index levels the measure scores.
	Levels() int
	// Degree returns deg(a, b) ∈ [0, 1].
	Degree(a, b *trace.Sequences) float64
	// DegreeFromCounts computes the degree from per-level overlap
	// durations |P^l_ab| and sequence sizes |P^l_a|, |P^l_b| (all slices
	// of length Levels(), level l at position l-1).
	DegreeFromCounts(overlap, aSize, bSize []int) float64
	// UpperBound returns the Theorem-4 bound on Degree(a, ·) over any
	// entity whose shared level-l cells with the query are limited to
	// surviving[l-1] of the query's own qSize[l-1] cells.
	UpperBound(surviving, qSize []int) float64
}

// Kind selects the per-level set-similarity ratio of a LevelWeighted
// measure.
type Kind int

const (
	// Dice scores a level as |A∩B| / (|A|+|B|), as in Eq 7.1 and
	// Example 5.2.1.
	Dice Kind = iota
	// Jaccard scores a level as |A∩B| / |A∪B|.
	Jaccard
)

func (k Kind) String() string {
	switch k {
	case Dice:
		return "dice"
	case Jaccard:
		return "jaccard"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// LevelWeighted is the shipped Measure family. Zero values are invalid;
// construct with NewPaperADM, NewDiceExample, or NewLevelWeighted.
type LevelWeighted struct {
	name    string
	kind    Kind
	weights []float64
	v       float64
	norm    float64
}

// NewLevelWeighted builds a measure with explicit per-level weights
// (weights[l-1] for level l), duration exponent v ≥ 1, and ratio kind.
// If normalize is true, the measure is scaled so that deg(e, e) = 1;
// otherwise raw weighted scores are returned (as in Example 5.2.1, whose
// weights 0.1/0.9 give deg(e,e) = 0.5 under Dice).
func NewLevelWeighted(name string, kind Kind, weights []float64, v float64, normalize bool) (*LevelWeighted, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("adm: no level weights")
	}
	if v < 1 {
		return nil, fmt.Errorf("adm: duration exponent v=%v < 1", v)
	}
	var sum float64
	for l, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("adm: negative weight %v at level %d", w, l+1)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("adm: all-zero weights")
	}
	m := &LevelWeighted{name: name, kind: kind, weights: weights, v: v, norm: 1}
	if normalize {
		// Self-similarity ratio is 1/2 for Dice and 1 for Jaccard at
		// every level.
		self := 1.0
		if kind == Dice {
			self = 0.5
		}
		m.norm = sum * math.Pow(self, v)
	}
	return m, nil
}

// NewPaperADM builds the paper's default measure (Eq 7.1): per-level weights
// l^u, Dice ratios raised to v, normalized so deg(e,e) = 1. The paper's
// experiments default to u = v = 2.
func NewPaperADM(levels int, u, v float64) (*LevelWeighted, error) {
	if levels < 1 {
		return nil, fmt.Errorf("adm: levels %d < 1", levels)
	}
	w := make([]float64, levels)
	for l := 1; l <= levels; l++ {
		w[l-1] = math.Pow(float64(l), u)
	}
	return NewLevelWeighted(fmt.Sprintf("paper(u=%g,v=%g)", u, v), Dice, w, v, true)
}

// NewDiceExample builds the measure of Example 5.2.1:
// deg = 0.1·dice¹ + 0.9·dice², unnormalized.
func NewDiceExample() *LevelWeighted {
	m, err := NewLevelWeighted("example-5.2.1", Dice, []float64{0.1, 0.9}, 1, false)
	if err != nil {
		panic("adm: NewDiceExample: " + err.Error())
	}
	return m
}

// NewJaccardADM builds a uniformly weighted, normalized Jaccard measure over
// the given number of levels (one of the "other similarity measures" the
// paper generalizes to).
func NewJaccardADM(levels int) (*LevelWeighted, error) {
	if levels < 1 {
		return nil, fmt.Errorf("adm: levels %d < 1", levels)
	}
	w := make([]float64, levels)
	for i := range w {
		w[i] = 1
	}
	return NewLevelWeighted(fmt.Sprintf("jaccard(m=%d)", levels), Jaccard, w, 1, true)
}

// Name implements Measure.
func (m *LevelWeighted) Name() string { return m.name }

// Levels implements Measure.
func (m *LevelWeighted) Levels() int { return len(m.weights) }

// Kind returns the per-level ratio kind.
func (m *LevelWeighted) Kind() Kind { return m.kind }

// Degree implements Measure using exact per-level overlap durations,
// coarsest level first. By the Section 4.1 derivation every shared level-l
// cell has its parent cell shared at level l-1, so the first level with no
// overlap ends the evaluation: every finer overlap is 0 as well, and each
// term left out is exactly +0.0.
func (m *LevelWeighted) Degree(a, b *trace.Sequences) float64 {
	if a.Levels() != len(m.weights) || b.Levels() != len(m.weights) {
		panic(fmt.Sprintf("adm: measure over %d levels applied to sequences with %d/%d levels",
			len(m.weights), a.Levels(), b.Levels()))
	}
	score := 0.0
	for l, w := range m.weights {
		al, bl := a.At(l+1), b.At(l+1)
		inter := trace.IntersectionSize(al, bl)
		if inter == 0 {
			break
		}
		score += w * m.pow(m.ratio(inter, len(al), len(bl)))
	}
	return score / m.norm
}

// DegreeFromCounts implements Measure.
func (m *LevelWeighted) DegreeFromCounts(overlap, aSize, bSize []int) float64 {
	score := 0.0
	for l := range m.weights {
		score += m.weights[l] * m.pow(m.ratio(overlap[l], aSize[l], bSize[l]))
	}
	return score / m.norm
}

// pow returns r^v for a ratio r ∈ [0, 1]. The two exponents in use skip
// math.Pow: v = 1 is the identity, and for v = 2 the product r*r is the
// correctly rounded square math.Pow also returns (it squares the mantissa
// once and rescales by a power of two, which is exact for normal results).
func (m *LevelWeighted) pow(r float64) float64 {
	switch m.v {
	case 1:
		return r
	case 2:
		return r * r
	}
	return math.Pow(r, m.v)
}

// UpperBound implements Measure: the degree of the artificial entity of
// Theorem 4, whose level-l trace is exactly the surviving[l-1] query cells.
// For Dice the per-level bound is x/(x+q) (the candidate has at least x
// cells); for Jaccard it is x/q (|A∪B| ≥ |A| = q), clamped to the
// self-similarity maximum.
func (m *LevelWeighted) UpperBound(surviving, qSize []int) float64 {
	score := 0.0
	for l := range m.weights {
		x, q := surviving[l], qSize[l]
		var r float64
		switch m.kind {
		case Dice:
			if x+q > 0 {
				r = float64(x) / float64(x+q)
			}
		case Jaccard:
			if q > 0 {
				r = float64(x) / float64(q)
			}
			if r > 1 {
				r = 1
			}
		}
		score += m.weights[l] * m.pow(r)
	}
	return score / m.norm
}

func (m *LevelWeighted) ratio(inter, aSize, bSize int) float64 {
	switch m.kind {
	case Dice:
		if aSize+bSize == 0 {
			return 0
		}
		return float64(inter) / float64(aSize+bSize)
	case Jaccard:
		union := aSize + bSize - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	default:
		panic("adm: unknown kind")
	}
}
