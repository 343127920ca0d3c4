package core

import (
	"fmt"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/trace"
)

// Approximate top-k queries — the first item of the paper's future work
// (Section 8.2): "many applications require the results be returned with
// very short delay and approximate answers would suffice ... with certain
// quality guarantees."
//
// ApproxTopK runs TopK's search (Postings.search) but relaxes the termination
// condition: the search stops as soon as the current k-th best exact degree
// reaches (1−ε) times the largest remaining upper bound. Every
// entity left unexplored then has degree at most UBmax ≤ kth/(1−ε), which
// yields the guarantee below. An optional budget caps the number of exact
// degree computations for hard latency ceilings; when the budget trips
// first, the achieved ε is reported instead of guaranteed.

// ApproxOptions tunes the approximate search.
type ApproxOptions struct {
	// Epsilon ∈ [0, 1): relative slack. 0 reproduces the exact search.
	Epsilon float64
	// MaxChecked caps exact degree computations (0 = unlimited). When the cap
	// fires before the ε-condition holds, the result carries the achieved
	// epsilon instead.
	MaxChecked int
}

// ApproxStats extends SearchStats with the achieved quality.
type ApproxStats struct {
	SearchStats
	// AchievedEpsilon is the smallest ε for which the guarantee holds on
	// this answer: every non-returned entity has degree ≤ kth/(1−ε),
	// i.e. the returned k-th degree is ≥ (1−ε)·(true k-th degree).
	// 0 means the answer is exact.
	AchievedEpsilon float64
	// BudgetExhausted reports that MaxChecked fired before the requested
	// ε-condition held.
	BudgetExhausted bool
}

// ApproxTopK answers a top-k query approximately, with the guarantee that
// the returned k-th degree is at least (1−AchievedEpsilon) times the true
// k-th degree. With Epsilon = 0 and MaxChecked = 0 it is exactly TopK.
func (p *Postings) ApproxTopK(q *trace.Sequences, k int, measure adm.Measure, opts ApproxOptions) ([]Result, ApproxStats, error) {
	if opts.Epsilon < 0 || opts.Epsilon >= 1 {
		return nil, ApproxStats{}, fmt.Errorf("core: epsilon %v outside [0,1)", opts.Epsilon)
	}
	return p.search(q, k, measure, opts)
}
