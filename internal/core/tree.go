// Package core implements top-k query processing over digital traces
// (Chapter 5 of "Top-k Queries over Digital Traces") over two indexes.
//
// Postings is the served index: an entity table and the level-1 cell index.
// Its searches draw their candidates from the postings of the query's level-1
// cells and score them in the order of the Theorem-4 bound their occupancy
// yields; it carries no signatures, so building and deriving it hash nothing.
//
// Tree is the paper's MinSigTree (Section 4.2.2), kept for the reproduction:
// an m-level tree (m = sp-index height) that groups entities by the routing
// index (argmax position) of their per-level MinHash signatures. Each node
// stores a single signature coordinate — the minimum, over its entities, of
// the signature value at the node's routing index — which is the paper's
// storage-reduced "partial" signature (Section 4.2.2). From that coordinate
// and Theorem 2, the search derives a partial pruned set of query ST-cells
// that no entity below the node can share, yielding an admissible upper bound
// on the association degree (Theorem 4) that tightens monotonically along
// root-to-leaf paths (Theorem 3).
//
// Build is Algorithm 1; Tree.SignatureTopK is Algorithm 2 with early
// termination; Insert/Remove/Update realize the incremental maintenance of
// Section 4.2.3. A Tree composes a Postings over the same entities, which its
// TopK, ApproxTopK and NewIter delegate to.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

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
// for the level digest ls with its group coordinate lowered to cover
// ls.value, creating the child (at level n.level+1) when there is none.
func (n *node) childFor(ls levelSig) (child *node, created bool) {
	i, ok := n.childIndex(ls.routing)
	if !ok {
		child = &node{routing: ls.routing, value: ls.value, level: n.level + 1}
		n.children = slices.Insert(n.children, i, child)
		return child, true
	}
	child = n.children[i]
	if ls.value < child.value {
		child.value = ls.value
	}
	return child, false
}

// Tree is the MinSigTree index over an entity population. It is not safe for
// concurrent mutation; concurrent queries against a tree that no goroutine is
// mutating are safe.
type Tree struct {
	ix     *spindex.Index
	hasher Hasher
	root   *node
	sigs   map[trace.EntityID][]levelSig // every indexed entity's per-level digests
	post   *Postings                     // the same entities' postings, and the sequence source
	m      int
	full   bool // full-signature mode (Options.FullSignatures)
}

// Build constructs a MinSigTree over the given entities (Algorithm 1).
// Sequences are fetched from src; entities without sequences are rejected.
func Build(ix *spindex.Index, hasher Hasher, src SequenceSource, entities []trace.EntityID) (*Tree, error) {
	return BuildWithOptions(ix, hasher, src, entities, Options{})
}

// Len returns the number of indexed entities (|E|).
func (t *Tree) Len() int { return t.root.count }

// Hasher returns the hash family the tree was built with.
func (t *Tree) Hasher() Hasher { return t.hasher }

// Contains reports whether the entity is indexed.
func (t *Tree) Contains(e trace.EntityID) bool {
	_, ok := t.sigs[e]
	return ok
}

// Entities returns the indexed entity IDs in ascending order.
func (t *Tree) Entities() []trace.EntityID { return t.post.Entities() }

// TopK answers a top-k query from the tree's postings (Postings.TopK).
func (t *Tree) TopK(q *trace.Sequences, k int, measure adm.Measure) ([]Result, SearchStats, error) {
	return t.post.TopK(q, k, measure)
}

// ApproxTopK answers approximately from the tree's postings
// (Postings.ApproxTopK).
func (t *Tree) ApproxTopK(q *trace.Sequences, k int, measure adm.Measure, opts ApproxOptions) ([]Result, ApproxStats, error) {
	return t.post.ApproxTopK(q, k, measure, opts)
}

// NewIter opens an incremental search over the tree's postings
// (Postings.NewIter).
func (t *Tree) NewIter(q *trace.Sequences, measure adm.Measure) (*Iter, error) {
	return t.post.NewIter(q, measure)
}

// Insert adds an entity to the index: compute its signature list, descend by
// per-level routing indexes (creating nodes as needed), lower group
// signature coordinates along the path, append the entity to the level-m
// leaf, and post it under its level-1 cells. Cost is O(C·nh + m) where C is
// the entity's cell count (Section 4.2.3).
func (t *Tree) Insert(e trace.EntityID) error {
	if t.Contains(e) {
		return fmt.Errorf("core: entity %d already indexed", e)
	}
	s, err := sequencesOf(t.post.src, e, t.m)
	if err != nil {
		return err
	}
	t.sign(e, s)
	t.post.add(e, s)
	return nil
}

// sign computes e's signatures from s and inserts it into the tree's nodes.
func (t *Tree) sign(e trace.EntityID, s *trace.Sequences) {
	if t.full {
		t.insertFull(e, s)
	} else {
		t.insertWithSig(e, signature(t.hasher, s))
	}
}

// insertWithSig inserts an entity into the nodes by its digests, without
// touching its sequences.
func (t *Tree) insertWithSig(e trace.EntityID, sig []levelSig) {
	t.sigs[e] = sig
	cur := t.root
	cur.count++
	for _, ls := range sig {
		cur, _ = cur.childFor(ls)
		cur.count++
	}
	cur.entities = append(cur.entities, e)
}

// Remove deletes an entity from the index by retracing its signature path
// (steps 1-2 of the Section 7.8 update procedure). Emptied nodes are pruned.
// Group signatures of surviving ancestors are left unchanged: they remain
// valid lower bounds of their members' signature values (never too large),
// so query results stay exact; they may be smaller than necessary, which
// only loosens upper bounds. Derive restores tight signatures.
func (t *Tree) Remove(e trace.EntityID) error {
	sig, ok := t.sigs[e]
	if !ok {
		return fmt.Errorf("core: entity %d not indexed", e)
	}
	delete(t.sigs, e)
	t.post.remove(e)
	path := make([]*node, 0, t.m+1)
	cur := t.root
	path = append(path, cur)
	for l := 1; l <= t.m; l++ {
		cur = cur.child(sig[l-1].routing)
		if cur == nil {
			panic(fmt.Sprintf("core: index corrupt: entity %d signature path broken at level %d", e, l))
		}
		path = append(path, cur)
	}
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

// Derive returns a new tree over src with the dirty entities re-signed from
// it (their updated sequences must already be there; a dirty entity not yet
// indexed is inserted, matching Update). It replays every clean entity from
// its stored digest into fresh nodes — O(|E|·m), no clean entity re-hashed —
// so the derived tree's group signatures are tight, and it shares no node
// with the receiver, which is left untouched. Full-signature trees keep no
// replayable digest of their coordinates and are not derivable.
func (t *Tree) Derive(src SequenceSource, dirty []trace.EntityID) (*Tree, error) {
	if t.full {
		return nil, fmt.Errorf("core: full-signature trees do not support Derive")
	}
	post, err := t.post.Derive(src, dirty)
	if err != nil {
		return nil, err
	}
	d := &Tree{ix: t.ix, hasher: t.hasher, root: &node{}, sigs: make(map[trace.EntityID][]levelSig, len(t.sigs)+len(dirty)), post: post, m: t.m}
	resign := make(map[trace.EntityID]bool, len(dirty))
	for _, e := range dirty {
		resign[e] = true
	}
	for _, e := range t.Entities() {
		if !resign[e] {
			d.insertWithSig(e, t.sigs[e])
		}
	}
	for _, e := range dirty {
		if !d.Contains(e) { // not a repeat
			d.sign(e, src.Get(e))
		}
	}
	return d, nil
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
	// header (16); per entity: m level digests (12 each) + leaf slot; the
	// level-1 cell index on top.
	st.MemoryBytes = st.Nodes*29 + st.Entities*(t.m*12+4) + t.post.cells.memoryBytes()
	if t.full {
		// Full-signature mode stores nh coordinates per node (§5.1).
		st.MemoryBytes += st.Nodes * t.hasher.NumFuncs() * 8
	}
	if f, ok := t.hasher.(interface{ MemoryBytes() int }); ok {
		st.MemoryBytes += f.MemoryBytes() // the family's tables (sighash.Family)
	}
	return st
}

// Validate checks index invariants: counts are consistent, every entity's
// stored signature path reaches the leaf containing it, every node's group
// coordinate is ≤ the signature values of all entities below it (with
// equality guaranteed only when no Remove happened since the last build), and
// the postings hold exactly the tree's entities.
func (t *Tree) Validate() error {
	seen := 0
	var walk func(n *node) (int, error)
	walk = func(n *node) (int, error) {
		if n.level == t.m {
			for _, e := range n.entities {
				sig, ok := t.sigs[e]
				if !ok {
					return 0, fmt.Errorf("core: leaf holds unknown entity %d", e)
				}
				if sig[n.level-1].routing != n.routing {
					return 0, fmt.Errorf("core: entity %d routing %d in leaf %d", e, sig[n.level-1].routing, n.routing)
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
	if seen != len(t.sigs) {
		return fmt.Errorf("core: %d entities in leaves, %d signatures stored", seen, len(t.sigs))
	}
	if t.post.Len() != seen {
		return fmt.Errorf("core: %d entities in leaves, %d in the postings", seen, t.post.Len())
	}
	// Signature-path and value invariants per entity.
	for e, sig := range t.sigs {
		if !t.post.Contains(e) {
			return fmt.Errorf("core: entity %d missing from the postings", e)
		}
		cur := t.root
		for l := 1; l <= t.m; l++ {
			cur = cur.child(sig[l-1].routing)
			if cur == nil {
				return fmt.Errorf("core: entity %d path broken at level %d", e, l)
			}
			if cur.value > sig[l-1].value {
				return fmt.Errorf("core: entity %d level %d: node value %d > entity value %d",
					e, l, cur.value, sig[l-1].value)
			}
		}
	}
	return nil
}

// LeafOrderedEntities returns the indexed entities in MinSigTree leaf
// order — the record layout Section 7.6 stores on disk so closely
// associated entities share blocks.
func (t *Tree) LeafOrderedEntities() []trace.EntityID {
	out := make([]trace.EntityID, 0, len(t.sigs))
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.level == t.m {
			sorted := append([]trace.EntityID(nil), nd.entities...)
			slices.Sort(sorted)
			out = append(out, sorted...)
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}
