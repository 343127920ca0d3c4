package core

import (
	"fmt"
	"slices"

	"digitaltraces/internal/parallel"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/trace"
)

// Path-copying derivation — the O(dirty) alternative to Clone's O(|E|·m)
// full replay. Derive builds the next index generation by structural
// sharing: every subtree untouched by the dirty entities is shared with the
// receiver by pointer, and only the root-to-leaf node paths the dirty
// signatures route through are copied before mutation. Queries pinned to the
// receiver keep searching it bit-identically — no shared node is ever
// written — which is exactly the property the root package's non-blocking
// Refresh swaps snapshots on.

// Derive returns a new tree generation with the dirty entities re-signed
// from src (pass the store the new generation should read sequences from;
// dirty entities' updated sequences must already be in it). Entities not in
// dirty keep their digests and their exact positions; a dirty entity not yet
// indexed is inserted fresh, matching Update's semantics.
//
// Cost is O(|dirty|·(C·nh + m·b)) — signature hashing for the dirty entities
// plus path copies of branching factor b — and crucially independent of |E|.
// Node sharing makes the receiver immutable from here on: Derive freezes it,
// so Insert/Remove/Update/Rebuild on it refuse (queries and further Derives
// are unaffected). Like Clone, full-signature trees are not derivable.
//
// Group signatures along a copied path stay conservative after the embedded
// removal, exactly as in Remove: never too large, so answers remain exact;
// possibly smaller than the true minimum, which only loosens upper bounds.
// A full Build (or Clone, which replays to tight signatures) restores
// maximal pruning.
func (t *Tree) Derive(src SequenceSource, dirty []trace.EntityID) (*Tree, error) {
	if t.full {
		return nil, fmt.Errorf("core: full-signature trees do not support Derive")
	}
	// Re-signing dominates a refresh (C·nh hash-table lookups per entity)
	// and is per-entity independent, so hash the dirty set in parallel
	// before touching any structure; the structural splice below stays
	// sequential and deterministic. Running it first also means an errored
	// Derive (missing sequences, level mismatch) returns before anything is
	// shared — the receiver is only frozen once sharing actually begins.
	seqs, sigs, err := t.signDirty(src, dirty)
	if err != nil {
		return nil, err
	}
	t.frozen = true
	d := &Tree{
		ix:       t.ix,
		hasher:   t.hasher,
		src:      src,
		root:     copyNode(t.root),
		sigs:     t.sigs.derive(),
		m:        t.m,
		removals: t.removals,
		cells:    t.cells.derive(),
	}
	// owned marks nodes private to this derivation (fresh copies or fresh
	// inserts); everything else is shared with the receiver and must be
	// copied before the first write. The derived tree keeps the set, so
	// later public Insert/Remove/Update calls on it stay copy-on-write too
	// — they can never write a node still shared with the frozen parent.
	d.owned = make(map[*node]bool, 2*len(dirty)*(t.m+1))
	d.owned[d.root] = true
	for i, e := range dirty {
		if old, ok := d.sigs.get(e); ok {
			d.removeCOW(e, old, d.owned)
			d.removals++
		}
		d.sigs.put(e, sigs[i])
		d.insertCOW(e, sigs[i], d.owned)
		d.cells.add(e, seqs[i].At(1))
	}
	return d, nil
}

// signDirty fetches the dirty entities' sequences and computes fresh
// signature digests for them, fanning the hashing across a bounded worker
// pool once the set is big enough to amortize it. Signature computation only
// reads the immutable hasher and each entity's own sequences, so the workers
// share nothing but the work counter.
func (t *Tree) signDirty(src SequenceSource, dirty []trace.EntityID) ([]*trace.Sequences, []sighash.EntitySig, error) {
	seqs := make([]*trace.Sequences, len(dirty))
	for i, e := range dirty {
		s := src.Get(e)
		if s == nil {
			return nil, nil, fmt.Errorf("core: entity %d has no sequences in the source", e)
		}
		if s.Levels() != t.m {
			return nil, nil, fmt.Errorf("core: entity %d has %d levels, index has %d", e, s.Levels(), t.m)
		}
		seqs[i] = s
	}
	sigs := make([]sighash.EntitySig, len(dirty))
	parallel.For(len(seqs), func(i int) {
		sigs[i] = sighash.Signature(t.hasher, seqs[i])
	})
	return seqs, sigs, nil
}

// copyNode returns a private copy of a shared node: the scalar fields, a
// shallow copy of the child list (children stay shared until they are copied
// themselves) and, for leaves, a fresh entity slice.
func copyNode(n *node) *node {
	c := *n
	c.children = slices.Clone(n.children)
	c.entities = slices.Clone(n.entities)
	return &c
}

// ownedChild returns parent's child at routing r as a node private to this
// derivation, copying it first if it is still shared. parent must already be
// owned.
func ownedChild(parent *node, r uint32, owned map[*node]bool) *node {
	i, ok := parent.childIndex(r)
	if !ok {
		return nil
	}
	child := parent.children[i]
	if !owned[child] {
		child = copyNode(child)
		owned[child] = true
		parent.children[i] = child
	}
	return child
}

// removeCOW retraces the entity's signature path like Remove, but copies
// every node on the path before touching it, so the shared original stays
// intact.
func (t *Tree) removeCOW(e trace.EntityID, sig sighash.EntitySig, owned map[*node]bool) {
	path := make([]*node, 0, t.m+1)
	cur := t.root
	path = append(path, cur)
	for l := 1; l <= t.m; l++ {
		cur = ownedChild(cur, sig[l-1].Routing, owned)
		if cur == nil {
			panic(fmt.Sprintf("core: index corrupt: entity %d signature path broken at level %d", e, l))
		}
		path = append(path, cur)
	}
	removeEntity(path, e)
}

// insertCOW descends by the new signature like insertWithSig, copying shared
// nodes before lowering their group coordinates or counts.
func (t *Tree) insertCOW(e trace.EntityID, sig sighash.EntitySig, owned map[*node]bool) {
	cur := t.root
	cur.count++
	for _, ls := range sig {
		ownedChild(cur, ls.Routing, owned) // an existing child must be private before childFor writes it
		child, created := cur.childFor(ls)
		if created {
			owned[child] = true
		}
		child.count++
		cur = child
	}
	cur.entities = append(cur.entities, e)
}
