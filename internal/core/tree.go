// Package core implements the MinSigTree (Section 4.2.2 of "Top-k Queries
// over Digital Traces") and top-k query processing over it (Chapter 5) —
// the paper's primary contribution.
//
// The MinSigTree is an m-level tree (m = sp-index height) that groups
// entities by the routing index (argmax position) of their per-level MinHash
// signatures. Each node stores a single signature coordinate — the minimum,
// over its entities, of the signature value at the node's routing index —
// which is the paper's storage-reduced "partial" signature (Section 4.2.2).
// From that coordinate and Theorem 2, the search derives a partial pruned
// set of query ST-cells that no entity below the node can share, yielding an
// admissible upper bound on the association degree (Theorem 4) that
// tightens monotonically along root-to-leaf paths (Theorem 3).
//
// Build is Algorithm 1; Tree.SignatureTopK is Algorithm 2 with early
// termination, and Tree.TopK the same search fed by the level-1 cell index's
// postings wherever those apply; Insert/Remove/Update realize the incremental
// maintenance of Section 4.2.3.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// SequenceSource supplies entity ST-cell set sequences to the index and the
// query processor. *trace.Store implements it in memory;
// *storage.Store (internal/storage) implements it through a block file and
// buffer pool for the memory-bounded experiments of Section 7.6.
type SequenceSource interface {
	// Get returns the sequences of an entity, or nil if unknown.
	Get(e trace.EntityID) *trace.Sequences
}

// node is one MinSigTree node. A node at tree level l groups entities whose
// level-l signature has routing index routing; value is the group-level
// signature coordinate SIG_N[routing] = min over members. Level-m nodes are
// leaves and hold their entity sets.
type node struct {
	routing  uint32
	value    uint64
	level    int              // 1..m; the root sits at virtual level 0
	children []*node          // ascending routing index: the traversal order, and binary-searchable
	entities []trace.EntityID // leaves only
	count    int              // entities in the subtree
	fullSig  []uint64         // full-signature mode only (Options.FullSignatures)
}

// childIndex returns the position of the child with routing index r among
// n's children, or the position it would be inserted at.
func (n *node) childIndex(r uint32) (int, bool) {
	return slices.BinarySearchFunc(n.children, r, func(c *node, r uint32) int {
		return cmp.Compare(c.routing, r)
	})
}

// child returns n's child with routing index r, or nil.
func (n *node) child(r uint32) *node {
	if i, ok := n.childIndex(r); ok {
		return n.children[i]
	}
	return nil
}

// childFor is the descent step every insertion shares: it returns n's child
// for the level signature ls with its group coordinate lowered to cover
// ls.Value, creating the child (at level n.level+1) when there is none.
func (n *node) childFor(ls sighash.LevelSig) (child *node, created bool) {
	i, ok := n.childIndex(ls.Routing)
	if !ok {
		child = &node{routing: ls.Routing, value: ls.Value, level: n.level + 1}
		n.children = slices.Insert(n.children, i, child)
		return child, true
	}
	child = n.children[i]
	if ls.Value < child.value {
		child.value = ls.Value
	}
	return child, false
}

// removeEntity deletes e from the leaf at the end of path and prunes the
// nodes it empties, bottom-up. Every node on path must be writable.
func removeEntity(path []*node, e trace.EntityID) {
	leaf := path[len(path)-1]
	i := slices.Index(leaf.entities, e)
	if i < 0 {
		panic(fmt.Sprintf("core: index corrupt: entity %d missing from its leaf", e))
	}
	leaf.entities = slices.Delete(leaf.entities, i, i+1)
	for _, n := range path {
		n.count--
	}
	for l := len(path) - 1; l >= 1; l-- {
		if n := path[l]; n.count == 0 {
			i, _ := path[l-1].childIndex(n.routing)
			path[l-1].children = slices.Delete(path[l-1].children, i, i+1)
		}
	}
}

// Tree is the MinSigTree index over a fixed entity population. It is not
// safe for concurrent mutation; concurrent TopK/ApproxTopK/KNNJoin queries
// against a tree that no goroutine is mutating are safe (the query path is
// verified read-only; see Tree.TopK). Callers mixing maintenance with
// queries must keep the two apart — the root-package DB does so by never
// mutating a served tree at all: queries search immutable, atomically
// swapped snapshots while maintenance updates a Clone aside.
type Tree struct {
	ix     *spindex.Index
	hasher sighash.Hasher
	src    SequenceSource
	root   *node
	sigs   *sigTable
	cells  *cellIndex // level-1 cell index (cellindex.go): the postings searches draw candidates from
	m      int
	full   bool // full-signature mode (Options.FullSignatures)

	// removals counts Remove operations since the last Build/Rebuild;
	// group signatures are conservative (never too large) after removals,
	// so queries stay exact but prune slightly less until a Rebuild.
	// Derive carries the counter into the derived generation.
	removals int

	// frozen is set by Derive on the receiver: a derived tree shares this
	// tree's nodes and digests, so any further mutation here would tear the
	// derived generation (and the queries pinned to this one). Mutating
	// operations refuse on a frozen tree; queries and further Derives are
	// unaffected.
	frozen bool

	// owned, on a Derive-built tree, marks the nodes private to it —
	// everything else is shared with the frozen parent generation. Mutating
	// operations copy a shared node before the first write (derive.go), so
	// Insert/Remove/Update on a derived tree can never corrupt the parent.
	// nil on fully private trees (Build, Clone, snapshot replay), whose
	// mutations write in place.
	owned map[*node]bool
}

// Build constructs a MinSigTree over the given entities (Algorithm 1).
// Sequences are fetched from src; entities without sequences are rejected.
func Build(ix *spindex.Index, hasher sighash.Hasher, src SequenceSource, entities []trace.EntityID) (*Tree, error) {
	return BuildWithOptions(ix, hasher, src, entities, Options{})
}

// Len returns the number of indexed entities (|E|).
func (t *Tree) Len() int { return t.root.count }

// Height returns m, the number of grouping levels.
func (t *Tree) Height() int { return t.m }

// Hasher returns the hash family the tree was built with.
func (t *Tree) Hasher() sighash.Hasher { return t.hasher }

// Source returns the sequence source queries read exact traces from.
func (t *Tree) Source() SequenceSource { return t.src }

// Contains reports whether the entity is indexed.
func (t *Tree) Contains(e trace.EntityID) bool {
	_, ok := t.sigs.get(e)
	return ok
}

// Removals reports how many Remove operations this tree's lineage has
// absorbed since the last tight construction (Build, Rebuild, Clone or
// snapshot replay) — Update and Derive count their embedded removals, and
// Derive carries the total across generations. Group signatures are
// conservative (never too large, possibly too small) after removals, so
// answers stay exact but pruning loosens; callers use this to schedule a
// re-tightening replay (the root package escalates an incremental refresh
// to a full copy once Removals exceeds Len).
func (t *Tree) Removals() int { return t.removals }

// errFrozen is the refusal every mutating operation returns once Derive has
// shared this tree's structure with a newer generation.
func (t *Tree) errFrozen(op string) error {
	return fmt.Errorf("core: %s on a frozen tree (Derive shared its nodes with a newer generation; mutate the derived tree instead)", op)
}

// Insert adds an entity to the index: compute its signature list, descend by
// per-level routing indexes (creating nodes as needed), lower group
// signature coordinates along the path, append the entity to the level-m
// leaf, and post it under its level-1 cells. Cost is O(C·nh + m) where C is
// the entity's cell count (Section 4.2.3).
func (t *Tree) Insert(e trace.EntityID) error {
	if t.frozen {
		return t.errFrozen("Insert")
	}
	s, err := t.insert(e)
	if err != nil {
		return err
	}
	t.cells.add(e, s.At(1))
	return nil
}

// insert is Insert without the cell index, which Build seals in one pass
// once every entity is in. It returns the sequences it signed.
func (t *Tree) insert(e trace.EntityID) (*trace.Sequences, error) {
	if _, dup := t.sigs.get(e); dup {
		return nil, fmt.Errorf("core: entity %d already indexed", e)
	}
	s := t.src.Get(e)
	if s == nil {
		return nil, fmt.Errorf("core: entity %d has no sequences in the source", e)
	}
	if s.Levels() != t.m {
		return nil, fmt.Errorf("core: entity %d has %d levels, index has %d", e, s.Levels(), t.m)
	}
	switch {
	case t.full:
		t.insertFull(e, s)
	case t.owned != nil:
		sig := sighash.Signature(t.hasher, s)
		t.sigs.put(e, sig)
		t.insertCOW(e, sig, t.owned)
	default:
		t.insertWithSig(e, sighash.Signature(t.hasher, s))
	}
	return s, nil
}

// Remove deletes an entity from the index by retracing its signature path
// (steps 1-2 of the Section 7.8 update procedure). Emptied nodes are pruned.
// Group signatures of surviving ancestors are left unchanged: they remain
// valid lower bounds of their members' signature values (never too large),
// so query results stay exact; they may be smaller than necessary, which
// only loosens upper bounds. Rebuild restores tight signatures.
func (t *Tree) Remove(e trace.EntityID) error {
	if t.frozen {
		return t.errFrozen("Remove")
	}
	sig, ok := t.sigs.get(e)
	if !ok {
		return fmt.Errorf("core: entity %d not indexed", e)
	}
	t.sigs.del(e)
	t.cells.gone[e] = struct{}{} // its pairs stay posted; no search may score it
	if t.owned != nil {
		t.removeCOW(e, sig, t.owned)
		t.removals++
		return nil
	}
	path := make([]*node, 0, t.m+1)
	cur := t.root
	path = append(path, cur)
	for l := 1; l <= t.m; l++ {
		cur = cur.child(sig[l-1].Routing)
		if cur == nil {
			panic(fmt.Sprintf("core: index corrupt: entity %d signature path broken at level %d", e, l))
		}
		path = append(path, cur)
	}
	removeEntity(path, e)
	t.removals++
	return nil
}

// Update refreshes an entity whose sequences changed in the source: the
// four-step procedure of Section 7.8 (locate, remove, re-sign, re-insert).
// Inserting a previously unknown entity with Update is allowed and skips the
// removal steps — the paper observes exactly this cost difference
// (Figure 7.9).
func (t *Tree) Update(e trace.EntityID) error {
	if t.Contains(e) {
		if err := t.Remove(e); err != nil {
			return err
		}
	}
	return t.Insert(e)
}

// Clone returns a structurally independent copy of the tree reading entity
// sequences from src (pass t.Source() to keep the same source): fresh nodes
// and a fresh signature map, replayed from the stored signature digests in
// ascending entity order — the snapshot replay, so the cost is O(|E|·m)
// with no re-hashing. The receiver is not touched and keeps serving
// concurrent queries; the clone is the build-aside entry point for
// maintenance that must never mutate a live tree (the root package's
// non-blocking Refresh updates a clone, then atomically swaps it in).
//
// Replay recomputes each group signature as the minimum over current
// members, so a clone taken after Removes has tight signatures again and
// prunes at least as well as the original. The stored per-entity digests are
// shared with the receiver; that is safe because no maintenance operation
// mutates a digest in place (Update replaces the map entry with a freshly
// computed one). The level-1 cell index is re-sealed from the sequences in
// src, dropping the stale pairs Remove and Update left behind.
// Full-signature trees (Options.FullSignatures) are an ablation-only
// configuration and are not cloneable.
func (t *Tree) Clone(src SequenceSource) (*Tree, error) {
	if t.full {
		return nil, fmt.Errorf("core: full-signature trees do not support Clone")
	}
	c := &Tree{
		ix:     t.ix,
		hasher: t.hasher,
		src:    src,
		root:   &node{},
		sigs:   newSigTable(t.sigs.len()),
		m:      t.m,
	}
	entities := t.Entities()
	for _, e := range entities {
		sig, _ := t.sigs.get(e)
		c.insertWithSig(e, sig)
	}
	c.cells = sealCells(src, entities)
	return c, nil
}

// Rebuild reconstructs the tree from the current entity set, restoring tight
// group signatures after removals.
func (t *Tree) Rebuild() error {
	if t.frozen {
		return t.errFrozen("Rebuild")
	}
	fresh, err := Build(t.ix, t.hasher, t.src, t.sigs.entities())
	if err != nil {
		return err
	}
	*t = *fresh
	return nil
}

// Entities returns the indexed entity IDs in ascending order.
func (t *Tree) Entities() []trace.EntityID {
	return t.sigs.entities()
}

// IndexStats describes the size and shape of the tree (Figure 7.8 reports
// MemoryBytes as "index size").
type IndexStats struct {
	Entities    int
	Nodes       int // internal + leaf nodes, excluding the virtual root
	Leaves      int
	MaxLeafSize int
	MemoryBytes int // nodes + per-entity digests + level-1 cell index + hash-family tables
}

// Stats computes current index statistics.
func (t *Tree) Stats() IndexStats {
	st := IndexStats{Entities: t.root.count}
	var walk func(n *node)
	walk = func(n *node) {
		if n.level > 0 {
			st.Nodes++
			if n.level == t.m {
				st.Leaves++
				if len(n.entities) > st.MaxLeafSize {
					st.MaxLeafSize = len(n.entities)
				}
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	// Per node: routing (4) + value (8) + level (1) + child-slice slot and
	// header (16); per entity: m LevelSig digests (12 each) + leaf slot; per
	// level-1 cell key 12 and per posting 4, added layer and gone set included.
	c := t.cells
	st.MemoryBytes = st.Nodes*29 + st.Entities*(t.m*12+4) + 12*(len(c.keys)+len(c.added)) + 4*(len(c.posts)+c.addedPairs+len(c.gone))
	if t.full {
		// Full-signature mode stores nh coordinates per node (§5.1).
		st.MemoryBytes += st.Nodes * t.hasher.NumFuncs() * 8
	}
	if f, ok := t.hasher.(*sighash.Family); ok {
		st.MemoryBytes += f.MemoryBytes()
	}
	return st
}

// Validate checks index invariants: counts are consistent, every entity's
// stored signature path reaches the leaf containing it, and every node's
// group coordinate is ≤ the signature values of all entities below it (with
// equality guaranteed only when no Remove happened since the last build).
func (t *Tree) Validate() error {
	seen := 0
	var walk func(n *node) (int, error)
	walk = func(n *node) (int, error) {
		if n.level == t.m {
			for _, e := range n.entities {
				sig, ok := t.sigs.get(e)
				if !ok {
					return 0, fmt.Errorf("core: leaf holds unknown entity %d", e)
				}
				if sig[n.level-1].Routing != n.routing {
					return 0, fmt.Errorf("core: entity %d routing %d in leaf %d", e, sig[n.level-1].Routing, n.routing)
				}
				seen++
			}
			if n.count != len(n.entities) {
				return 0, fmt.Errorf("core: leaf count %d != %d entities", n.count, len(n.entities))
			}
			return n.count, nil
		}
		total := 0
		for i, c := range n.children {
			if i > 0 && n.children[i-1].routing >= c.routing {
				return 0, fmt.Errorf("core: children of a level-%d node out of routing order at %d", n.level, c.routing)
			}
			if c.level != n.level+1 {
				return 0, fmt.Errorf("core: child of level-%d node at level %d", n.level, c.level)
			}
			sub, err := walk(c)
			if err != nil {
				return 0, err
			}
			if sub == 0 {
				return 0, fmt.Errorf("core: empty subtree at level %d routing %d", c.level, c.routing)
			}
			total += sub
		}
		if total != n.count {
			return 0, fmt.Errorf("core: level-%d node count %d != children sum %d", n.level, n.count, total)
		}
		return total, nil
	}
	if _, err := walk(t.root); err != nil {
		return err
	}
	if seen != t.sigs.len() {
		return fmt.Errorf("core: %d entities in leaves, %d signatures stored", seen, t.sigs.len())
	}
	// Signature-path and value invariants per entity.
	for _, e := range t.sigs.entities() {
		sig, _ := t.sigs.get(e)
		cur := t.root
		for l := 1; l <= t.m; l++ {
			cur = cur.child(sig[l-1].Routing)
			if cur == nil {
				return fmt.Errorf("core: entity %d path broken at level %d", e, l)
			}
			if cur.value > sig[l-1].Value {
				return fmt.Errorf("core: entity %d level %d: node value %d > entity value %d",
					e, l, cur.value, sig[l-1].Value)
			}
		}
	}
	return nil
}

// ensure interface compliance of the in-memory store.
var _ SequenceSource = (*trace.Store)(nil)

// ensure adm dependency is used here (Measure threaded through search.go).
var _ adm.Measure = (*adm.LevelWeighted)(nil)
