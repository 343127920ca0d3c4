package core

import (
	"slices"

	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Full-signature mode: the Section 5.1 ablation. The paper's index stores a
// single signature coordinate per node ("materialize SIG_N[u] only",
// §4.2.2) and prunes with the *partial* pruned set; the alternative stores
// the complete nh-coordinate group signature and prunes with the full
// Theorem-2 rule — tighter bounds at nh× the node storage and nh× the
// per-cell filtering cost. BuildFull constructs that variant so the
// trade-off the paper argues qualitatively can be measured
// (BenchmarkAblationSignatures in bench_test.go).

// Options controls index construction variants.
type Options struct {
	// FullSignatures stores the complete group signature at every node and
	// prunes with the full pruned set (Section 5.1's PS_N instead of
	// PPS_N).
	FullSignatures bool
}

// BuildWithOptions is Build with construction options. The level-1 cell
// index is sealed once, from the sequences the insertions just read.
func BuildWithOptions(ix *spindex.Index, hasher sighash.Hasher, src SequenceSource, entities []trace.EntityID, opts Options) (*Tree, error) {
	t := &Tree{
		ix:     ix,
		hasher: hasher,
		src:    src,
		root:   &node{},
		sigs:   newSigTable(len(entities)),
		m:      ix.Height(),
		full:   opts.FullSignatures,
	}
	for _, e := range entities {
		if _, err := t.insert(e); err != nil {
			return nil, err
		}
	}
	t.cells = sealCells(src, entities)
	return t, nil
}

// insertFull descends like insertWithSig but also folds the entity's
// complete per-level signatures into each node's group signature.
func (t *Tree) insertFull(e trace.EntityID, s *trace.Sequences) {
	nh := t.hasher.NumFuncs()
	digest := make(sighash.EntitySig, t.m)
	fulls := make([][]uint64, t.m)
	for l := 1; l <= t.m; l++ {
		full := sighash.FullSignature(t.hasher, s.At(l))
		fulls[l-1] = full
		best := 0
		for u := 1; u < nh; u++ {
			if full[u] > full[best] {
				best = u
			}
		}
		digest[l-1] = sighash.LevelSig{Routing: uint32(best), Value: full[best]}
	}
	t.sigs.put(e, digest)
	cur := t.root
	cur.count++
	for l, ls := range digest {
		child, created := cur.childFor(ls)
		if created {
			child.fullSig = slices.Clone(fulls[l])
		} else {
			for u, v := range fulls[l] {
				if v < child.fullSig[u] {
					child.fullSig[u] = v
				}
			}
		}
		child.count++
		cur = child
	}
	cur.entities = append(cur.entities, e)
}

// fullSurvives reports whether query base cell s survives the node's full
// pruned set: it is pruned as soon as any coordinate certifies absence
// (Theorem 2 over all nh functions).
func (t *Tree) fullSurvives(n *node, s trace.Cell, stats *SearchStats) bool {
	for u, sig := range n.fullSig {
		stats.CellsHashed++
		if t.hasher.Hash(u, s) < sig {
			return false
		}
	}
	return true
}
