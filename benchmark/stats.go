package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// medianOf applies f to each consecutive segment and returns the median of
// the results: the estimator every reported timing uses, so that a burst of
// interference confined to one or two segments cannot move the result.
func medianOf[T any](segs []T, f func(T) float64) float64 {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = f(s)
	}
	return median(vals)
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method),
// which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4
		n := len(s)
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return median(s), median(s)
	}
	return at(1), at(3)
}

// layer is one span pass of the traced run: its name and the duration of
// each op's span, in ns, indexed by op.
type layer struct {
	name string
	durs []float64
}

func (l layer) median() float64 { return median(l.durs) }

// selfTimes turns a chain of nested passes over the same ops, outermost
// first, into self times: per op, a layer's span minus the span of the layer
// it calls, and the median of those differences over the ops. Pairing by op
// cancels the spread between cheap and expensive queries, which is far wider
// than a thin layer's own cost. The innermost layer keeps its whole median.
func selfTimes(chain []layer) map[string]float64 {
	out := make(map[string]float64, len(chain))
	for i, l := range chain {
		if i+1 == len(chain) {
			out[l.name] = l.median()
			break
		}
		diffs := make([]float64, len(l.durs))
		for op, d := range l.durs {
			diffs[op] = d - chain[i+1].durs[op]
		}
		out[l.name] = median(diffs)
	}
	return out
}
