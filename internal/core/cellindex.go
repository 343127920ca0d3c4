package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"

	"digitaltraces/internal/cow"
	"digitaltraces/internal/trace"
)

// cellIndex maps each level-1 cell to the entities occupying it: the postings
// an exact search draws its candidates from (DESIGN.md, "Posting-driven
// search").
//
// Invariant: for every indexed entity e and every level-1 cell c of its
// current sequences, e is in postings(c) — a missing pair would be a wrong
// answer. Pairs are only ever added. The stale pairs of an entity that is
// still indexed (re-indexed with different data) only loosen its bound; the
// pairs of an entity removed outright stay too, and the entity table keeps
// every search from scoring it until it is indexed again. BuildPostings seals
// from the sequences, which drops the stale pairs; an image written with its
// sequences stores the pairs minus those of the removed entities, and
// Snapshot.MappedPostings adopts them as the base.
//
// By the Section 4.1 derivation every shared level-l cell has its level-1
// ancestor shared. So an entity in none of the postings of a query's level-1
// cells shares no cell with it at any level, and one in the postings of the
// level-1 cells I only can share, per level, at most the query's cells below
// I — an overlap vector Measure.UpperBound turns into a Theorem-4 bound.
type cellIndex struct {
	// The sealed base, in CSR form and immutable, so derived generations
	// share it: keys[i]'s postings are posts[offs[i]:offs[i+1]], ascending.
	keys  []trace.Cell
	offs  []uint32
	posts []trace.EntityID
	// added holds the pairs added since, a cell's in one list that a write
	// replaces whole, so its writes count the pairs.
	added cow.Map[trace.Cell, []trace.EntityID]
	maxID trace.EntityID // largest entity ID posted; -1 when none
}

// seal builds an index whose base holds the pairs each yields — the same ones
// on both of its calls: one pass counts the postings per cell, one fills them.
func seal(each func(post func(trace.Cell, trace.EntityID))) *cellIndex {
	ci := &cellIndex{maxID: -1}
	slot := make(map[trace.Cell]uint32) // postings per cell, then the cell's fill cursor
	each(func(c trace.Cell, e trace.EntityID) {
		slot[c]++
		ci.maxID = max(ci.maxID, e)
	})
	ci.keys = slices.Sorted(maps.Keys(slot))
	ci.offs = make([]uint32, len(ci.keys)+1)
	for i, c := range ci.keys {
		ci.offs[i+1] = ci.offs[i] + slot[c]
		slot[c] = ci.offs[i]
	}
	ci.posts = make([]trace.EntityID, ci.offs[len(ci.keys)])
	each(func(c trace.Cell, e trace.EntityID) {
		ci.posts[slot[c]] = e
		slot[c]++
	})
	for i := range ci.keys {
		slices.Sort(ci.posts[ci.offs[i]:ci.offs[i+1]])
	}
	return ci
}

// sealCells builds the index of exactly the level-1 cells of the given
// entities' sequences in src (an entity src does not hold has none).
func sealCells(src SequenceSource, entities []trace.EntityID) *cellIndex {
	return seal(func(post func(trace.Cell, trace.EntityID)) {
		for _, e := range entities {
			if s := src.Get(e); s != nil {
				for _, c := range s.At(1) {
					post(c, e)
				}
			}
		}
	})
}

// postings returns the entities posted under c: the sealed list and the ones
// added since.
func (ci *cellIndex) postings(c trace.Cell) (sealed, added []trace.EntityID) {
	if i, ok := slices.BinarySearch(ci.keys, c); ok {
		sealed = ci.posts[ci.offs[i]:ci.offs[i+1]]
	}
	added, _ = ci.added.Get(c)
	return sealed, added
}

// add posts e under each of its level-1 cells, skipping pairs already there:
// the sealed ones first, which spares their cells the probe of added.
func (ci *cellIndex) add(e trace.EntityID, cells []trace.Cell) {
	for _, c := range cells {
		if i, ok := slices.BinarySearch(ci.keys, c); ok {
			if _, ok := slices.BinarySearch(ci.posts[ci.offs[i]:ci.offs[i+1]], e); ok {
				continue
			}
		}
		if added, _ := ci.added.Get(c); !slices.Contains(added, e) {
			ci.added.Set(c, append(slices.Clip(added), e))
		}
	}
	ci.maxID = max(ci.maxID, e)
}

// pairs yields every posted pair, sealed then added, except those of the
// entities drop reports (none when drop is nil).
func (ci *cellIndex) pairs(drop func(trace.EntityID) bool) func(post func(trace.Cell, trace.EntityID)) {
	return func(post func(trace.Cell, trace.EntityID)) {
		each := func(c trace.Cell, es []trace.EntityID) {
			for _, e := range es {
				if drop == nil || !drop(e) {
					post(c, e)
				}
			}
		}
		for i, c := range ci.keys {
			each(c, ci.posts[ci.offs[i]:ci.offs[i+1]])
		}
		for c, es := range ci.added.Flat() {
			each(c, es)
		}
	}
}

// derive returns the next generation's index over the same pairs, sharing the
// base — or, once the added pairs outgrow it, folding both into a fresh base,
// which keeps the stale pairs.
func (ci *cellIndex) derive() *cellIndex {
	if ci.added.Outgrows(len(ci.posts)) {
		return seal(ci.pairs(nil))
	}
	return &cellIndex{keys: ci.keys, offs: ci.offs, posts: ci.posts, added: ci.added.Derive(), maxID: ci.maxID}
}

// memoryBytes estimates the index's size: 12 bytes per cell key and 4 per
// posting, plus 16 per pair added since (a key and a posting).
func (ci *cellIndex) memoryBytes() int {
	return 12*len(ci.keys) + 4*len(ci.posts) + 16*ci.added.Writes()
}

// scratch is the state one search recycles through scratchPool: the query's
// view of the cell index, split into tiers, and the candidates bucketed from
// the tiers the frontier reached.
type scratch struct {
	// mask[e] has bit min(j, 63) set when e is posted under the j-th of the
	// query's level-1 cells in stamp order — shortest posting list first —
	// for every posted ID e (mark sizes it to the largest), and hits holds
	// every entity with a non-zero mask, in the order stamp met them. All zero
	// or empty while pooled: release clears exactly the entries of hits.
	mask []uint64
	hits []trace.EntityID
	// ints is one allocation, carved per query (carve) into the slices below.
	ints []int
	// cells[j] is the index in the query's level-1 cells of the j-th stamped
	// one, and pos its inverse; size[i] is the i-th cell's posting count.
	cells, pos, size []int
	// Tier j is hits[tiers[j]:tiers[j+1]], the hits first met under the j-th
	// stamped cell — bit j and bits above it only. The cells from the 64th on
	// share bit 63 and form one tier, the last.
	tiers []int
	// under[j*m+l-1] counts the query's level-l cells below the j-th stamped
	// cell (row 63 stands for every cell from the 64th on), and rx sums
	// the rows of the next tier to bucket and all after it: the overlap
	// vector of the frontier's reach.
	under, rx []int
	x         []int // the overlap vector of the bucket bound or visited
	bs        []int // a candidate's level sizes (sizedBound)
	// The candidates of the bucketed tiers (rankTier): one bucket per distinct
	// mask, queue the unvisited ones as a heap (bucketBefore), order their
	// candidates bucket after bucket and tier after tier. A mask's tier is its
	// lowest bit, so no two tiers share a bucket. slots is the table that
	// finds a mask's bucket (id + 1, open addressing, at most half full) and
	// bkt[i] the bucket of the tier's i-th hit, -1 for a hit that is no
	// candidate.
	buckets []bucket
	queue   []bucket
	order   []trace.EntityID
	slots   []int32
	bkt     []int32
}

// bucket is the group of candidates posted under exactly the level-1 cells of
// mask: they share one Theorem-4 bound, ub, and are order[end-n:end].
type bucket struct {
	mask   uint64
	ub     float64
	n, end int
}

// bucketBefore is the queue's order: bound descending, then the larger
// bucket, then the smaller mask.
func bucketBefore(a, b bucket) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	if a.n != b.n {
		return a.n > b.n
	}
	return a.mask < b.mask
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// carve lays out the scratch's int slices for a query of r level-1 cells at
// m levels, all zero.
func (sc *scratch) carve(r, m int) {
	t := min(r, 64)
	n := 3*r + t + 1 + (t+3)*m
	sc.ints = slices.Grow(sc.ints[:0], n)[:n]
	clear(sc.ints)
	rest := sc.ints
	take := func(n int) []int {
		s := rest[:n:n]
		rest = rest[n:]
		return s
	}
	sc.cells, sc.pos, sc.size, sc.tiers = take(r), take(r), take(r), take(t+1)
	sc.under, sc.rx, sc.x, sc.bs = take(t*m), take(m), take(m), take(m)
}

// maskOf returns e's mask: 0 for an entity under none of the query's level-1
// cells, such as one posted nowhere.
func (sc *scratch) maskOf(e trace.EntityID) uint64 {
	if uint(e) < uint(len(sc.mask)) {
		return sc.mask[e]
	}
	return 0
}

// mark fills the scratch's view of the cell index for the query — the masks,
// the tiers and the reach of the first — and queues nothing: the frontier
// buckets a tier only once its reach is in the running (visit). The postings
// serve only a measure that bounds an entity with no overlap by 0, so that an
// entity no posting list names has degree exactly 0; any other is refused by
// name.
func (f *frontier) mark() error {
	sc, ci, m := f.pooled, f.p.cells, f.p.m
	roots := f.q.At(1)
	sc.carve(len(roots), m)
	if ub := f.measure.UpperBound(sc.x, f.qCounts, nil); ub != 0 {
		return fmt.Errorf("core: measure %s bounds an entity sharing no cell with the query by %v, not 0, so the postings cannot serve it (Tree.SignatureTopK can)", f.measure.Name(), ub)
	}
	n := int(ci.maxID) + 1
	if cap(sc.mask) < n {
		sc.mask = make([]uint64, n)
	}
	sc.mask = sc.mask[:n]
	for i, c := range roots {
		sealed, added := ci.postings(c)
		sc.cells[i], sc.size[i] = i, len(sealed)+len(added)
	}
	slices.SortStableFunc(sc.cells, func(a, b int) int { return cmp.Compare(sc.size[a], sc.size[b]) })
	for j, i := range sc.cells {
		sc.pos[i] = j
	}
	f.stamp()
	for l := 1; l <= m; l++ {
		for _, c := range f.q.At(l) {
			i, _ := slices.BinarySearch(roots, trace.MakeCell(c.Time(), f.p.ix.Root(c.Unit())))
			sc.under[min(sc.pos[i], 63)*m+l-1]++
			sc.rx[l-1]++
		}
	}
	f.tier, f.reach = 0, f.measure.UpperBound(sc.rx, f.qCounts, nil)
	sc.buckets, sc.queue = sc.buckets[:0], sc.queue[:0]
	sc.rehash(max(64, len(sc.slots))) // no buckets yet: an empty table
	sc.order = slices.Grow(sc.order[:0], len(sc.hits))
	// Every entity other than the query is a candidate still to score or
	// posted nowhere the query is; visit moves the scored ones to Checked.
	candidates := len(sc.hits)
	if f.p.removed {
		for _, e := range sc.hits {
			if !f.candidate(e) {
				candidates--
			}
		}
	} else if sc.maskOf(f.q.Entity) != 0 {
		candidates--
	}
	f.stats.BoundSkipped = candidates
	f.stats.ZeroSkipped = f.n - candidates
	return nil
}

// stamp sets the bit of each of the query's level-1 cells, in stamp order, in
// the mask of every entity posted under it, recording an entity in hits the
// first time and where each tier of hits begins.
func (f *frontier) stamp() {
	sc := f.pooled
	posted := 0
	for _, n := range sc.size {
		posted += n
	}
	// Room for every posting, so each is written at the cursor and kept by
	// moving it only if new: no branch on the mask just loaded.
	hits := slices.Grow(sc.hits[:0], posted)[:posted]
	mask, roots, last, n := sc.mask, f.q.At(1), len(sc.tiers)-1, 0
	for j, i := range sc.cells {
		if j < last {
			sc.tiers[j] = n
		}
		bit := uint64(1) << min(j, 63)
		sealed, added := f.p.cells.postings(roots[i])
		for _, list := range [2][]trace.EntityID{sealed, added} {
			for _, e := range list {
				old := mask[e]
				mask[e] = old | bit
				hits[n] = e
				if old == 0 {
					n++
				}
			}
		}
	}
	sc.tiers[last] = n
	sc.hits = hits[:n]
}

// candidate reports whether a hit is ever scored: it is not the query itself,
// nor the stale pair of a removed entity.
func (f *frontier) candidate(e trace.EntityID) bool {
	return e != f.q.Entity && !(f.p.removed && !f.p.Contains(e))
}

// pending reports whether a tier is left to bucket.
func (f *frontier) pending() bool { return f.tier < len(f.pooled.tiers)-1 }

// rankTier buckets the next tier: it groups the tier's candidates by mask,
// bounds the buckets, lays the candidates out on order bucket after bucket (a
// counting sort over the tier's distinct masks, far fewer than its hits) and
// queues the buckets. Then it moves the reach to the tier after.
func (f *frontier) rankTier() {
	sc, j := f.pooled, f.tier
	hits := sc.hits[sc.tiers[j]:sc.tiers[j+1]]
	first := len(sc.buckets)
	sc.bkt = sc.bkt[:0]
	last := int32(-1) // neighbours in a posting list often share their mask
	for _, e := range hits {
		if !f.candidate(e) {
			sc.bkt = append(sc.bkt, -1)
			continue
		}
		if mask := sc.mask[e]; last < 0 || sc.buckets[last].mask != mask {
			last = sc.bucketOf(mask)
		}
		sc.buckets[last].n++
		sc.bkt = append(sc.bkt, last)
	}
	total := len(sc.order)
	for id := first; id < len(sc.buckets); id++ {
		b := &sc.buckets[id]
		b.ub = f.bound(b.mask)
		b.end = total // the scatter's cursor: it stops at the bucket's end
		total += b.n
	}
	sc.order, f.stats.bucketed = sc.order[:total], total
	for i, id := range sc.bkt {
		if id >= 0 {
			b := &sc.buckets[id]
			sc.order[b.end] = hits[i]
			b.end++
		}
	}
	for _, b := range sc.buckets[first:] {
		sc.queue = heapPush(sc.queue, b, bucketBefore)
	}
	f.tier++
	if f.pending() {
		m := len(sc.rx)
		for l := range sc.rx {
			sc.rx[l] -= sc.under[j*m+l]
		}
		f.reach = f.measure.UpperBound(sc.rx, f.qCounts, nil)
	}
}

// bucketOf returns the id of mask's bucket, opening it on first sight.
func (sc *scratch) bucketOf(mask uint64) int32 {
	i := sc.slot(mask)
	if sc.slots[i] == 0 {
		sc.buckets = append(sc.buckets, bucket{mask: mask})
		sc.slots[i] = int32(len(sc.buckets))
		if 2*len(sc.buckets) > len(sc.slots) {
			sc.rehash(2 * len(sc.slots))
		}
		return int32(len(sc.buckets)) - 1
	}
	return sc.slots[i] - 1
}

// slot probes the table (a power of two of slots, never full) for mask: the
// slot naming its bucket, or the empty one where it belongs.
func (sc *scratch) slot(mask uint64) int {
	i := int(mask * 0x9E3779B97F4A7C15 >> (64 - bits.TrailingZeros(uint(len(sc.slots)))))
	for sc.slots[i] != 0 && sc.buckets[sc.slots[i]-1].mask != mask {
		i = (i + 1) & (len(sc.slots) - 1)
	}
	return i
}

// rehash rebuilds the table over the open buckets at the given size.
func (sc *scratch) rehash(size int) {
	sc.slots = append(sc.slots[:0], make([]int32, size)...)
	for id, b := range sc.buckets {
		sc.slots[sc.slot(b.mask)] = int32(id) + 1
	}
}

// release returns the search's scratch to the pool; the frontier must not be
// advanced afterwards. Calling it again is a no-op.
func (f *frontier) release() {
	sc := f.pooled
	if sc == nil {
		return
	}
	for _, e := range sc.hits {
		sc.mask[e] = 0
	}
	sc.hits = sc.hits[:0]
	f.pooled = nil
	scratchPool.Put(sc)
}

// bound returns the Theorem-4 bound on the degree of an entity with the given
// mask, its bucket's bound.
func (f *frontier) bound(mask uint64) float64 {
	f.overlap(mask)
	return f.measure.UpperBound(f.pooled.x, f.qCounts, nil)
}

// overlap sets the scratch's x to the overlap vector of an entity with the
// given mask: per level it shares at most the query's cells below the mask's
// cells.
func (f *frontier) overlap(mask uint64) {
	sc := f.pooled
	clear(sc.x)
	m := len(sc.x)
	for rest := mask; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		for l := range sc.x {
			sc.x[l] += sc.under[i*m+l]
		}
	}
}

// sizedBound returns the bound on e's degree that also knows e's own level
// sizes, the scratch's x holding its bucket's overlap vector.
func (f *frontier) sizedBound(e trace.EntityID) float64 {
	sc := f.pooled
	return f.measure.UpperBound(sc.x, f.qCounts, f.p.levelSizesOf(e, sc.bs))
}
