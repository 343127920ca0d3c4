// Package sighash implements the signature machinery of Section 4.2.1 of
// "Top-k Queries over Digital Traces": a family of hash functions over
// ST-cells satisfying the hierarchical constraint
//
//	h_u(t·lx) = min{ h_u(t·lc) | lc child of lx },
//
// and MinHash-style per-level entity signatures built from them. The
// constraint makes signatures at different levels comparable (Theorem 1:
// sig^i[u] ≤ sig^(i+1)[u]) and powers the pruning rule of Theorem 2: if
// sig^i[u] > h_u(s) for any u, the entity cannot be present at ST-cell s.
package sighash

import (
	"fmt"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Hasher is a family of nh hash functions over ST-cells at any sp-index
// level. Implementations must satisfy the hierarchical constraint: for any
// function u and time t, Hash(u, t·parent) = min over children c of
// Hash(u, t·c). Family (seeded, production) and TableHasher (explicit,
// for worked examples) both comply.
type Hasher interface {
	// NumFuncs returns nh, the number of hash functions in the family.
	NumFuncs() int
	// RangeSize returns |S|: hash values lie in [0, RangeSize()).
	RangeSize() uint64
	// Hash returns h_u(cell) for function index fn in [0, NumFuncs()).
	// The cell's unit may be at any level of the sp-index.
	Hash(fn int, c trace.Cell) uint64
}

// LevelSig is the per-level signature digest persisted per entity: the
// routing index (the argmax position of the full nh-value signature, the
// paper's grouping key) and the signature value at that position. Storing
// only this pair is the paper's "materialize SIG_N[u] only" optimization
// (Section 4.2.2): it keeps index memory at O(|E|·m) instead of
// O(|E|·m·nh).
type LevelSig struct {
	Routing uint32 // argmax position u of the level signature
	Value   uint64 // sig[Routing], the maximal hash value
}

// EntitySig is an entity's signature list digest: one LevelSig per sp-index
// level, position l-1 holding level l.
type EntitySig []LevelSig

// Signature computes the entity's per-level signature digests:
// sig^i[u] = min{ h_u(s) | s ∈ seq^i } for each level i and function u,
// reduced to (argmax u, max value) per level. Ties in the argmax are broken
// toward the smallest u (the paper breaks them arbitrarily).
func Signature(h Hasher, s *trace.Sequences) EntitySig {
	nh := h.NumFuncs()
	out := make(EntitySig, s.Levels())
	mins := make([]uint64, nh)
	for l := 1; l <= s.Levels(); l++ {
		fullSignatureInto(h, s.At(l), mins)
		best := 0
		for u := 1; u < nh; u++ {
			if mins[u] > mins[best] {
				best = u
			}
		}
		out[l-1] = LevelSig{Routing: uint32(best), Value: mins[best]}
	}
	return out
}

// FullSignature returns the complete nh-value signature of a cell set
// (sig^i in the paper). It is exported for tests, worked examples and
// diagnostics; the index itself only persists LevelSig digests.
func FullSignature(h Hasher, cells []trace.Cell) []uint64 {
	mins := make([]uint64, h.NumFuncs())
	fullSignatureInto(h, cells, mins)
	return mins
}

func fullSignatureInto(h Hasher, cells []trace.Cell, mins []uint64) {
	if f, ok := h.(*Family); ok {
		// Fast path: inline the A+B decomposition to avoid an interface
		// call per (cell, function).
		f.MinsInto(cells, mins)
		return
	}
	for u := range mins {
		mins[u] = ^uint64(0)
	}
	for _, c := range cells {
		for u := range mins {
			if v := h.Hash(u, c); v < mins[u] {
				mins[u] = v
			}
		}
	}
}

// Family is the production Hasher: nh seeded hash functions of the form
//
//	h_u(t, l) = A_u(t) + B_u(l),
//
// where A_u(t) is pseudo-uniform in [0, |S|-n] and, for a base unit l,
// B_u(l) is pseudo-uniform in [0, n). For a non-base unit, B_u is the
// precomputed minimum of B_u over its base descendants, which realizes the
// paper's hierarchical constraint exactly while keeping parent-cell hashing
// O(1). The range is [0, |S|) with |S| = n·horizon, as in Section 6.3.
//
// The decomposition trades some uniformity (cells sharing a time unit share
// A_u(t)) for tractability; Theorems 1-4 never rely on uniformity, only
// pruning effectiveness does.
type Family struct {
	ix      *spindex.Index
	nh      int
	horizon trace.Time
	n       uint64 // number of base units
	aSpan   uint64 // A values lie in [0, aSpan); aSpan = |S| - n + 1
	seed    uint64 // the construction seed, for persistence
	seeds   []uint64
	// minBT holds, for every spatial unit and function, the minimum of B_u
	// over the unit's base descendants (B_u itself for a base unit), laid
	// out [unit*nh+u]: the signature inner loop sweeps all nh functions for
	// one cell, so the unit-major layout makes that sweep one contiguous row
	// read, matching aTab's layout.
	minBT []uint32
	// aTab memoizes A_u(t) for every in-horizon t, laid out [t*nh+u] so the
	// per-function inner loops stream contiguously. A's domain is only
	// nh × horizon, yet the naive evaluation (a splitmix64 round plus a
	// 64-bit modulo) sat on every hot path — signature computation during
	// build/refresh and cell pruning during search — once per (cell,
	// function). The table turns each evaluation into one load. nil when the
	// domain exceeds maxATabEntries; out-of-horizon times (query-by-example
	// cells past the indexed horizon) always take the computed path.
	aTab []uint64
}

// maxATabEntries caps the A-table at 32 MiB (4M uint64 entries); beyond
// that — pathological horizons — the family computes A on demand.
const maxATabEntries = 1 << 22

// NewFamily builds a hash family of nh functions over the ST-cell space of
// the given sp-index and time horizon, deterministically derived from seed.
// Precomputation costs O(nh · NumUnits) time and memory (uint32 per unit per
// function).
func NewFamily(ix *spindex.Index, horizon trace.Time, nh int, seed uint64) (*Family, error) {
	if nh < 1 {
		return nil, fmt.Errorf("sighash: nh %d < 1", nh)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("sighash: horizon %d < 1", horizon)
	}
	n := uint64(ix.NumBase())
	f := &Family{
		ix:      ix,
		nh:      nh,
		horizon: horizon,
		n:       n,
		aSpan:   n*uint64(horizon) - n + 1,
		seed:    seed,
		seeds:   make([]uint64, nh),
		minBT:   make([]uint32, ix.NumUnits()*nh),
	}
	// Units ordered by level descending so children are filled before
	// parents.
	order := make([]spindex.UnitID, 0, ix.NumUnits())
	for l := ix.Height(); l >= 1; l-- {
		order = append(order, ix.UnitsAt(l)...)
	}
	if uint64(nh)*uint64(horizon) <= maxATabEntries {
		f.aTab = make([]uint64, int(horizon)*nh)
	}
	mb := make([]uint32, ix.NumUnits()) // one function's column, reused
	for u := 0; u < nh; u++ {
		f.seeds[u] = splitmix64(seed + uint64(u)*0x9e3779b97f4a7c15)
		if f.aTab != nil {
			for t := trace.Time(0); t < horizon; t++ {
				f.aTab[int(t)*nh+u] = f.computeA(u, t)
			}
		}
		for _, unit := range order {
			if ix.Level(unit) == ix.Height() {
				b := uint64(ix.BaseOf(unit))
				mb[unit] = uint32(splitmix64(f.seeds[u]^(b*0xff51afd7ed558ccd+1)) % n)
				continue
			}
			best := uint32(0xffffffff)
			for _, c := range ix.Children(unit) {
				if mb[c] < best {
					best = mb[c]
				}
			}
			mb[unit] = best
		}
		for unit, b := range mb {
			f.minBT[unit*nh+u] = b
		}
	}
	return f, nil
}

// NumFuncs returns nh.
func (f *Family) NumFuncs() int { return f.nh }

// RangeSize returns |S| = n·horizon.
func (f *Family) RangeSize() uint64 { return f.n * uint64(f.horizon) }

// Horizon returns the time horizon the family was built for.
func (f *Family) Horizon() trace.Time { return f.horizon }

// Seed returns the construction seed. NewFamily over the same sp-index with
// the same (horizon, nh, seed) rebuilds an identical family — the basis of
// index persistence (internal/core snapshots store only these scalars).
func (f *Family) Seed() uint64 { return f.seed }

// Hash returns h_u(cell) = A_u(t) + minB_u(unit).
func (f *Family) Hash(fn int, c trace.Cell) uint64 {
	return f.hashA(fn, c.Time()) + uint64(f.minBT[int(c.Unit())*f.nh+fn])
}

func (f *Family) hashA(fn int, t trace.Time) uint64 {
	if tt := int(uint32(t)); f.aTab != nil && tt < int(f.horizon) {
		return f.aTab[tt*f.nh+fn]
	}
	return f.computeA(fn, t)
}

// computeA is the arithmetic definition of A_u(t); hashA serves memoized
// values from aTab when the time is inside the indexed horizon.
func (f *Family) computeA(fn int, t trace.Time) uint64 {
	return splitmix64(f.seeds[fn]^(uint64(uint32(t))*0xc4ceb9fe1a85ec53+2)) % f.aSpan
}

// MinsInto sets mins[u], for each of the nh functions, to the minimum of
// h_u over cells: the full signature of a cell set, by the tuned inner loop
// Signature runs — per cell, one contiguous sweep over the memoized A row
// plus the per-function B lookups, no hashing arithmetic at all for
// in-horizon cells. Exported so internal/core's MinSigTree signs entities at
// the same speed without importing this package.
func (f *Family) MinsInto(cells []trace.Cell, mins []uint64) {
	for u := range mins {
		mins[u] = ^uint64(0)
	}
	nh := f.nh
	for _, c := range cells {
		unit := int(uint32(c.Unit()))
		t := int(uint32(c.Time()))
		brow := f.minBT[unit*nh : (unit+1)*nh]
		if f.aTab != nil && t < int(f.horizon) {
			arow := f.aTab[t*nh : (t+1)*nh]
			for u, a := range arow {
				if v := a + uint64(brow[u]); v < mins[u] {
					mins[u] = v
				}
			}
			continue
		}
		for u := range mins {
			if v := f.computeA(u, trace.Time(t)) + uint64(brow[u]); v < mins[u] {
				mins[u] = v
			}
		}
	}
}

// MemoryBytes reports the approximate memory footprint of the family's
// precomputed tables (Figure 7.8 accounts index size including hash state).
func (f *Family) MemoryBytes() int {
	return f.nh*8 + len(f.aTab)*8 + len(f.minBT)*4
}

// TableHasher is a Hasher defined by an explicit table of base-cell hash
// values, for reproducing the worked examples of the thesis (Table 4.1).
// Parent-cell values are derived on the fly as minima over base
// descendants, honoring the hierarchical constraint.
type TableHasher struct {
	ix     *spindex.Index
	n      int
	rng    uint64
	values [][]uint64 // values[fn][t*n + base]
}

// NewTableHasher wraps explicit hash tables: values[fn][t*n+base] is
// h_fn(t·base) for base ordinal base. rangeSize is |S| for reporting.
func NewTableHasher(ix *spindex.Index, values [][]uint64, rangeSize uint64) *TableHasher {
	return &TableHasher{ix: ix, n: ix.NumBase(), rng: rangeSize, values: values}
}

// NumFuncs returns the number of explicit functions.
func (th *TableHasher) NumFuncs() int { return len(th.values) }

// RangeSize returns the declared hash range.
func (th *TableHasher) RangeSize() uint64 { return th.rng }

// Hash returns the table value for base cells, and the minimum over base
// descendants for coarser cells.
func (th *TableHasher) Hash(fn int, c trace.Cell) uint64 {
	u := c.Unit()
	lo, hi := th.ix.BaseRange(u)
	t := int(c.Time())
	best := ^uint64(0)
	for b := lo; b < hi; b++ {
		if v := th.values[fn][t*th.n+int(b)]; v < best {
			best = v
		}
	}
	return best
}

// splitmix64 is the SplitMix64 mixer (Steele et al.), a fast, well-dispersed
// 64-bit finalizer used to derive all pseudo-random values in this package.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
