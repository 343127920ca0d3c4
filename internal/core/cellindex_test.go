package core

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// The level-1 cell index can be wrong by omission — a missing (cell, entity)
// pair turns a real answer into a skipped zero — and, now that its postings
// are the candidate list, by a stale pair of a removed entity or an order
// that stops a bucket too early. These tests hunt all three — through every
// constructor and across copy-on-write generations — over entity IDs
// 0..n−1, the IDs the facade hands out.

// forest returns a 3-level sp-index with several roots (so that sharing a
// time unit does not imply sharing a level-1 cell): roots × 2 × 2 base units.
func forest(roots int) *spindex.Index {
	b := spindex.NewBuilder(3)
	for r := 0; r < roots; r++ {
		root := b.AddRoot()
		for i := 0; i < 2; i++ {
			mid := b.AddChild(root)
			b.AddChild(mid)
			b.AddChild(mid)
		}
	}
	ix, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ix
}

const cellHorizon = 40

// cellMeasures spans the Measure family the skips must hold for: both ratio
// kinds, every duration exponent with its own pow path, normalised or not —
// and one measure that weighs level 1 at 0, under which an entity sharing
// only a coarse cell is scored and still has degree exactly 0.
func cellMeasures(t testing.TB) []adm.Measure {
	t.Helper()
	var out []adm.Measure
	for _, kind := range []adm.Kind{adm.Dice, adm.Jaccard} {
		for _, v := range []float64{1, 2, 3} {
			for _, norm := range []bool{true, false} {
				m, err := adm.NewLevelWeighted(fmt.Sprintf("%v/v=%g/norm=%t", kind, v, norm), kind, []float64{1, 4, 9}, v, norm)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, m)
			}
		}
	}
	blind, err := adm.NewLevelWeighted("w1=0", adm.Dice, []float64{0, 1, 2}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, blind)
}

// cellWorld is a population under maintenance: the newest generation of
// postings, the store it reads, and every generation derived from behind it.
type cellWorld struct {
	t     *testing.T
	rng   *rand.Rand
	ix    *spindex.Index
	st    *trace.Store
	post  *Postings
	fresh []trace.EntityID // IDs not used yet, the next first
	past  []frozenCells
}

// frozenCells is a generation Derive was called on, with a deep copy of its
// cell index taken at that moment.
type frozenCells struct {
	post              *Postings
	keys              []trace.Cell
	offs              []uint32
	posts             []trace.EntityID
	added             map[trace.Cell][]trace.EntityID
	entities, answers string
}

func newCellWorld(t *testing.T, seed int64) *cellWorld {
	w := &cellWorld{t: t, rng: rand.New(rand.NewSource(seed)), ix: forest(4)}
	w.st = trace.NewStore(w.ix)
	// IDs by arrival, as the facade hands them out: 45 built, a companion,
	// and the rest arriving in derives.
	var built []trace.EntityID
	for e := range trace.EntityID(45) {
		w.st.AddRecords(e, w.records(e))
		built = append(built, e)
	}
	const companion = trace.EntityID(45) // shares exactly the bit-63 tail of the wide example
	w.st.Put(trace.NewSequencesFromCells(w.ix, companion, lateCells(w.ix)))
	built = append(built, companion)
	for e := companion + 1; e < companion+33; e++ {
		w.fresh = append(w.fresh, e)
	}
	var err error
	if w.post, err = BuildPostings(w.ix, w.st, built); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *cellWorld) records(e trace.EntityID) []trace.Record {
	var recs []trace.Record
	for j := 0; j < 1+w.rng.Intn(5); j++ {
		s := trace.Time(w.rng.Intn(cellHorizon - 3))
		recs = append(recs, trace.Record{
			Entity: e, Base: spindex.BaseID(w.rng.Intn(w.ix.NumBase())),
			Start: s, End: s + 1 + trace.Time(w.rng.Intn(3)),
		})
	}
	return recs
}

func (w *cellWorld) pick(n int) []trace.EntityID {
	es := w.post.Entities()
	w.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es[:min(n, len(es))]
}

// derive is a refresh: appended visits for some indexed entities and
// brand-new entities, folded by Store.Derive + Postings.Derive.
func (w *cellWorld) derive() {
	dirty := w.pick(3)
	dst := w.st.Derive()
	for _, e := range dirty {
		dst.Put(trace.NewSequencesMerged(w.ix, e, w.records(e), w.st.Get(e)))
	}
	for i := 0; i < 2 && len(w.fresh) > 0; i++ {
		e := w.fresh[0]
		w.fresh = w.fresh[1:]
		dst.AddRecords(e, w.records(e))
		dirty = append(dirty, e)
	}
	w.past = append(w.past, w.freeze())
	next, err := w.post.Derive(dst, dirty)
	if err != nil {
		w.t.Fatalf("Derive: %v", err)
	}
	w.st, w.post = dst, next
}

func (w *cellWorld) freeze() frozenCells {
	ci := w.post.cells
	fz := frozenCells{
		post: w.post, keys: slices.Clone(ci.keys), offs: slices.Clone(ci.offs), posts: slices.Clone(ci.posts),
		added: addedLists(ci), entities: fmt.Sprint(w.post.Entities()),
	}
	fz.answers = w.fingerprint(w.post)
	return fz
}

// fingerprint renders a few answers of an index, to show an earlier
// generation still answers as it did.
func (w *cellWorld) fingerprint(p *Postings) string {
	m := cellMeasures(w.t)[0]
	var out []Result
	for _, e := range p.Entities()[:3] {
		res, _, err := p.TopK(p.src.Get(e), 5, m)
		if err != nil {
			w.t.Fatal(err)
		}
		out = append(out, res...)
	}
	return fmt.Sprint(out)
}

// update replaces entities' data outright (the old cells are gone, the
// index keeps their pairs) in place, as Tree.Update re-posts an entity.
func (w *cellWorld) update() {
	for _, e := range w.pick(3) {
		w.post.add(e, w.st.AddRecords(e, w.records(e)))
	}
}

// remove unindexes the two entities with the largest IDs in place, as
// Tree.Remove does — so an image written before the next arrival holds
// entities 0..n−1 with the removed ones' pairs left out.
func (w *cellWorld) remove() {
	es := w.post.Entities()
	for _, e := range es[max(0, len(es)-2):] {
		w.post.remove(e)
	}
}

// rebuild seals fresh postings over a derived store.
func (w *cellWorld) rebuild() {
	st := w.st.Derive()
	p, err := BuildPostings(w.ix, st, w.post.Entities())
	if err != nil {
		w.t.Fatalf("BuildPostings: %v", err)
	}
	w.st, w.post = st, p
}

// reload replaces the index by what an image of it opens as, read by
// offset: served in place with the stored cell index — base,
// added pairs and stale pairs folded by the writer — adopted as is. An image
// holds entities 0..n−1, so the writer refuses an index missing an entity
// below its largest ID; such removed entities are indexed again first.
func (w *cellWorld) reload() {
	var holes []trace.EntityID
	es := w.post.Entities()
	for e := range es[len(es)-1] {
		if !w.post.Contains(e) {
			holes = append(holes, e)
		}
	}
	if len(holes) > 0 {
		_, err := w.post.WriteSnapshot(io.Discard, SnapshotMeta{TimeUnit: time.Hour}, w.st, snapshotNames)
		if want := fmt.Sprintf("row %d would hold entity", holes[0]); err == nil || !strings.Contains(err.Error(), want) {
			w.t.Fatalf("WriteSnapshot of an index missing entity %d: %v, want an error containing %q", holes[0], err, want)
		}
		for _, e := range holes {
			w.post.add(e, w.st.Get(e))
		}
	}
	var buf bytes.Buffer
	if _, err := w.post.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, w.st, snapshotNames); err != nil {
		w.t.Fatalf("WriteSnapshot: %v", err)
	}
	p, err := openMapped(buf.Bytes(), w.ix, w.st)
	if err != nil {
		w.t.Fatalf("reloading the index: %v", err)
	}
	w.post = p
}

// step advances the world by one generation; the schedule strings several
// derives together so the added layer reaches its compaction fold.
func (w *cellWorld) step(gen int) string {
	op := []string{"derive", "derive", "update", "derive", "derive", "derive", "derive", "remove", "remap", "rebuild", "derive", "reload"}[gen%12]
	switch op {
	case "derive":
		w.derive()
	case "update":
		w.update()
	case "remove":
		w.remove()
	case "rebuild":
		w.rebuild()
	case "remap", "reload":
		w.reload()
	}
	return op
}

// queries returns indexed entities' own sequences plus query-by-example
// sequences of an unindexed entity: one reaching past the indexed horizon
// and one with more than 64 level-1 cells (so mask bit 63 is shared).
func (w *cellWorld) queries() []*trace.Sequences {
	var qs []*trace.Sequences
	for _, e := range w.pick(3) {
		qs = append(qs, w.st.Get(e))
	}
	var late []trace.Cell
	for i := 0; i < 12; i++ {
		late = append(late, trace.MakeCell(trace.Time(cellHorizon-6+i), w.ix.BaseUnit(spindex.BaseID(w.rng.Intn(w.ix.NumBase())))))
	}
	const example = trace.EntityID(-1000)
	wide := trace.NewSequencesFromCells(w.ix, example, wideCells(w.ix))
	if n := wide.Size(1); n != 80 {
		w.t.Fatalf("wide example has %d level-1 cells, want 80", n)
	}
	return append(qs, trace.NewSequencesFromCells(w.ix, example, late), wide)
}

// wideCells is a query-by-example trace with 80 level-1 cells. The first 68
// (hours 0-16, every root) hold one base cell each; the last 12 (hours
// 17-22, two roots) hold all four base cells of their root — so the level-1
// cells that share mask bit 63 are the ones with the most underneath, and a
// bound that mistook them for early cells would undercount. lateCells is
// that tail alone: the trace of an entity that shares nothing else.
func wideCells(ix *spindex.Index) []trace.Cell {
	var out []trace.Cell
	for t := 0; t < 17; t++ {
		for root := 0; root < 4; root++ {
			out = append(out, trace.MakeCell(trace.Time(t), ix.BaseUnit(spindex.BaseID(4*root+t%4))))
		}
	}
	return append(out, lateCells(ix)...)
}

func lateCells(ix *spindex.Index) []trace.Cell {
	var out []trace.Cell
	for t := 17; t < 23; t++ {
		for base := 0; base < 8; base++ {
			out = append(out, trace.MakeCell(trace.Time(t), ix.BaseUnit(spindex.BaseID(base))))
		}
	}
	return out
}

// requireMarksSound checks the facts the skips rest on, entity by entity: an
// unmarked entity has degree exactly 0, a marked one's cell-index bound
// dominates its degree, and the bound its own level sizes give lies between
// the two.
func requireMarksSound(t *testing.T, label string, p *Postings, q *trace.Sequences, m adm.Measure) {
	t.Helper()
	f, err := p.newFrontier(q, m)
	if err != nil {
		t.Fatalf("%s %s: %v", label, m.Name(), err)
	}
	defer f.release()
	for _, e := range p.Entities() {
		if e == q.Entity {
			continue
		}
		deg, mask := m.Degree(q, p.src.Get(e)), f.pooled.maskOf(e)
		if mask == 0 && deg != 0 {
			t.Fatalf("%s %s: entity %d is unmarked but has degree %v", label, m.Name(), e, deg)
		}
		if ub := f.bound(mask); mask != 0 && ub < deg {
			t.Fatalf("%s %s: entity %d mask %#x: bound %v < degree %v", label, m.Name(), e, mask, ub, deg)
		} else if sized := f.sizedBound(e); mask != 0 && (sized < deg || sized > ub) {
			t.Fatalf("%s %s: entity %d mask %#x sizes %v: sized bound %v outside [degree %v, bucket bound %v]", label, m.Name(), e, mask, p.sizes(e), sized, deg, ub)
		}
	}
}

// requireExact checks TopK and Rank at floor 0 against the scan, bit for bit;
// the counters' identity; and Rank's Bound above every degree it left out.
func requireExact(t *testing.T, label string, p *Postings, q *trace.Sequences, k int, m adm.Measure) SearchStats {
	t.Helper()
	want := BruteForceTopK(p.src, p.Entities(), q, k, m)
	got, stats, err := p.TopK(q, k, m)
	if err != nil {
		t.Fatalf("%s: TopK: %v", label, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d %s: TopK\n got  %v\n want %v", label, k, m.Name(), got, want)
	}
	others := p.Len()
	if p.Contains(q.Entity) {
		others--
	}
	if stats.Reached() != others || stats.NodesPopped != 0 {
		t.Fatalf("%s k=%d %s: %+v does not account for %d entities once each, without a traversal", label, k, m.Name(), stats, others)
	}
	if r := requireRank(t, label, p, q, m, k, 0, nil); r.Stats != stats {
		t.Fatalf("%s k=%d %s: Rank at floor 0 did other work than TopK: %+v, TopK %+v", label, k, m.Name(), r.Stats, stats)
	}
	return stats
}

// requireCellInvariant checks the index invariant — every level-1 cell of
// every indexed entity's current sequences lists the entity — and the
// structure (requireCellStructure).
func requireCellInvariant(t testing.TB, label string, p *Postings) {
	t.Helper()
	requireCellStructure(t, label, p)
	for _, e := range p.Entities() {
		if e > p.cells.maxID {
			t.Fatalf("%s: entity %d above maxID %d", label, e, p.cells.maxID)
		}
		if got, want := p.sizes(e), levelSizes(nil, p.src.Get(e)); !slices.Equal(got, want) {
			t.Fatalf("%s: entity %d's table entry %v, its sequences' sizes %v", label, e, got, want)
		}
		for _, c := range p.src.Get(e).At(1) {
			sealed, added := p.cells.postings(c)
			if !slices.Contains(sealed, e) && !slices.Contains(added, e) {
				t.Fatalf("%s: entity %d missing from the postings of its level-1 cell %v", label, e, c)
			}
		}
	}
}

// requireCellStructure checks what postings, add and the entity table rely
// on: ascending keys, lists and table, consistent counts.
func requireCellStructure(t testing.TB, label string, p *Postings) {
	t.Helper()
	ci := p.cells
	if ci == nil {
		t.Fatalf("%s: no cell index", label)
	}
	if len(p.base)%p.m != 0 {
		t.Fatalf("%s: entity table of %d bytes misshapen for %d levels", label, len(p.base), p.m)
	}
	for e, b := range p.added.Flat() {
		if b != nil && len(b) != p.m { // nil: removed
			t.Fatalf("%s: entity %d's written entry has %d levels, want %d", label, e, len(b), p.m)
		}
	}
	if es := p.Entities(); len(es) != p.Len() || !slices.IsSorted(es) || len(slices.Compact(slices.Clone(es))) != len(es) {
		t.Fatalf("%s: Len %d, table lists %d entities", label, p.Len(), len(es))
	}
	if !slices.IsSorted(ci.keys) || len(slices.Compact(slices.Clone(ci.keys))) != len(ci.keys) || len(ci.offs) != len(ci.keys)+1 {
		t.Fatalf("%s: keys not strictly ascending, or offsets misshapen", label)
	}
	pairs := 0
	for i := range ci.keys {
		if !slices.IsSorted(ci.posts[ci.offs[i]:ci.offs[i+1]]) {
			t.Fatalf("%s: postings of %v not ascending", label, ci.keys[i])
		}
	}
	for _, es := range ci.added.Flat() {
		pairs += len(es)
	}
	if pairs != ci.added.Writes() {
		t.Fatalf("%s: added took %d writes, holds %d pairs", label, ci.added.Writes(), pairs)
	}
}

// addedLists copies the cell index's added lists into a plain map.
func addedLists(ci *cellIndex) map[trace.Cell][]trace.EntityID {
	out := map[trace.Cell][]trace.EntityID{}
	for c, es := range ci.added.Flat() {
		out[c] = slices.Clone(es)
	}
	return out
}

// removedCount counts the entities the entity table marks removed.
func removedCount(p *Postings) int {
	n := 0
	for _, b := range p.added.Flat() {
		if b == nil {
			n++
		}
	}
	return n
}

func TestCellIndexExactnessProperty(t *testing.T) {
	measures := cellMeasures(t)
	for seed := int64(1); seed <= 3; seed++ {
		w := newCellWorld(t, seed)
		zeroSkipped, boundSkipped := 0, 0
		for gen := 0; gen <= 22; gen++ {
			label := fmt.Sprintf("seed %d gen %d (build)", seed, gen)
			if gen > 0 {
				label = fmt.Sprintf("seed %d gen %d (%s)", seed, gen, w.step(gen-1))
			}
			requireCellInvariant(t, label, w.post)
			for _, q := range w.queries() {
				for _, m := range measures {
					requireMarksSound(t, label, w.post, q, m)
					for _, k := range []int{1, 10, w.post.Len() + 5} {
						stats := requireExact(t, label, w.post, q, k, m)
						zeroSkipped += stats.ZeroSkipped
						boundSkipped += stats.BoundSkipped
					}
				}
			}
		}
		if zeroSkipped == 0 || boundSkipped == 0 {
			t.Fatalf("seed %d: the skips never fired (zero %d, bound %d): the property checked nothing", seed, zeroSkipped, boundSkipped)
		}
	}
}

// TestCellIndexInvariantModel checks the invariant itself after every
// maintenance step, and that copy-on-write generations never disturb the
// ones derived from before them.
func TestCellIndexInvariantModel(t *testing.T) {
	w := newCellWorld(t, 11)
	requireCellInvariant(t, "build", w.post)
	folds, remaps := 0, 0
	for gen := 0; gen < 33; gen++ {
		prev := w.post
		before := prev.cells
		op := w.step(gen)
		label := fmt.Sprintf("gen %d (%s)", gen+1, op)
		requireCellInvariant(t, label, w.post)
		if op == "derive" && len(w.post.cells.posts) > 0 && len(before.posts) > 0 {
			if &w.post.cells.posts[0] != &before.posts[0] {
				folds++ // compaction built a fresh base
			} else if len(w.post.cells.posts) != len(before.posts) {
				t.Fatalf("%s: derived base shares the parent's array but not its length", label)
			}
		}
		if op == "remap" || op == "reload" {
			// A stored index is the writer's fold: nothing added, nothing
			// gone, every pair of base and added outside the removed entities.
			got := w.post.cells
			if got.added.Writes() != 0 || w.post.removed {
				t.Fatalf("%s: adopted index took %d added pairs, or a removal", label, got.added.Writes())
			}
			if want := seal(before.pairs(func(e trace.EntityID) bool { return !prev.Contains(e) })); !slices.Equal(got.keys, want.keys) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.posts, want.posts) {
				t.Fatalf("%s: adopted index differs from the saved one's pairs", label)
			}
			if before.added.Writes() > 0 && removedCount(prev) > 0 {
				remaps++
			}
		}
		if op == "rebuild" {
			// A re-sealed index is exactly the current sequences' pairs.
			want := sealCells(w.st, w.post.Entities())
			if got := w.post.cells; !slices.Equal(got.keys, want.keys) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.posts, want.posts) || got.added.Writes() != 0 {
				t.Fatalf("%s: re-sealed index differs from one sealed over the current sequences", label)
			}
		}
	}
	if folds == 0 {
		t.Fatal("no derive reached the compaction fold")
	}
	if remaps == 0 {
		t.Fatal("no image was written from an index with added pairs and removed entities")
	}
	for i, fz := range w.past {
		ci := fz.post.cells
		if !slices.Equal(ci.keys, fz.keys) || !slices.Equal(ci.offs, fz.offs) || !slices.Equal(ci.posts, fz.posts) ||
			!maps.EqualFunc(addedLists(ci), fz.added, slices.Equal[[]trace.EntityID]) {
			t.Fatalf("frozen generation %d: cell index changed after it was derived from", i)
		}
		if got := fmt.Sprint(fz.post.Entities()); got != fz.entities {
			t.Fatalf("frozen generation %d: entities changed", i)
		}
		if got := w.fingerprint(fz.post); got != fz.answers {
			t.Fatalf("frozen generation %d: answers changed\n was %s\n now %s", i, fz.answers, got)
		}
	}
}

// TestCellIndexDeriveIsODirty: a parent with 10⁵ postings derives by sharing
// them — the derivation allocates far less than one copy of the base and
// adds only the dirty entities' pairs.
func TestCellIndexDeriveIsODirty(t *testing.T) {
	ix := forest(4)
	st := trace.NewStore(ix)
	rng := rand.New(rand.NewSource(5))
	ids := make([]trace.EntityID, 12500)
	for i := range ids {
		ids[i] = trace.EntityID(i)
		var base []trace.Cell
		for len(base) < 8 {
			base = append(base, trace.MakeCell(trace.Time(len(base)*5+rng.Intn(5)), ix.BaseUnit(spindex.BaseID(rng.Intn(ix.NumBase())))))
		}
		st.Put(trace.NewSequencesFromCells(ix, ids[i], base))
	}
	parent, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(parent.cells.posts); n != 100000 {
		t.Fatalf("parent has %d postings, want 100000", n)
	}
	// Entity 3 changes, 12500 is new, 7000 is dirty with unchanged cells:
	// its pairs are all in the base already and must not be added again.
	dst := st.Derive()
	dirty := []trace.EntityID{3, 7000, 12500}
	for _, e := range []trace.EntityID{3, 12500} {
		dst.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{trace.MakeCell(1, ix.BaseUnit(0)), trace.MakeCell(39, ix.BaseUnit(15))}))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	next, err := parent.Derive(dst, dirty)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if &next.cells.posts[0] != &parent.cells.posts[0] || &next.cells.keys[0] != &parent.cells.keys[0] || &next.base[0] != &parent.base[0] {
		t.Fatal("derived index copied the parent's base")
	}
	written := slices.Sorted(maps.Keys(next.added.Flat()))
	if !slices.Equal(written, dirty) || next.added.Writes() != len(dirty) || next.Len() != parent.Len()+1 {
		t.Fatalf("derived entity table wrote %v in %d writes, %d entities; want the dirty %v, one new", written, next.added.Writes(), next.Len(), dirty)
	}
	if pairs := next.cells.added.Writes(); pairs < 2 || pairs > 4 {
		t.Fatalf("derived index added %d pairs; entity 12500 brings 2, entity 3 at most 2, entity 7000 none", pairs)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(parent.cells.posts)*4/2); got > limit {
		t.Fatalf("Derive allocated %d bytes; half a copy of the postings is %d", got, limit)
	}
	requireCellInvariant(t, "derived", next)
	requireCellInvariant(t, "parent", parent)
}

// TestCellIndexSiblingDerives: Derive leaves its receiver untouched and may be
// called on it again, so two generations can descend from one parent; a pair
// or table entry one of them adds must never appear in (or overwrite one of)
// the other.
func TestCellIndexSiblingDerives(t *testing.T) {
	ix := forest(2)
	st := trace.NewStore(ix)
	here := []trace.Cell{trace.MakeCell(1, ix.BaseUnit(0))}
	elsewhere := trace.MakeCell(5, ix.BaseUnit(3))
	var sealed []trace.EntityID
	for e := range trace.EntityID(11) { // a base big enough that three added pairs do not fold
		cells := here
		if e == 10 {
			cells = []trace.Cell{elsewhere} // until sibling b re-indexes it here too
		}
		st.Put(trace.NewSequencesFromCells(ix, e, cells))
		sealed = append(sealed, e)
	}
	parent, err := BuildPostings(ix, st, sealed)
	if err != nil {
		t.Fatal(err)
	}
	// In-place inserts (Tree.Insert's) leave the parent's added list for the
	// cell, and its table's added list, with spare capacity — the arrays a
	// careless sibling would write into.
	for e := trace.EntityID(11); e <= 13; e++ {
		st.Put(trace.NewSequencesFromCells(ix, e, here))
		parent.add(e, st.Get(e))
	}
	sibling := func(e trace.EntityID, cells []trace.Cell) *Postings {
		dst := st.Derive()
		dst.Put(trace.NewSequencesFromCells(ix, e, cells))
		d, err := parent.Derive(dst, []trace.EntityID{e})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// a indexes a new entity under the cell; b re-indexes entity 10 under it
	// and where it was, so both append to the cell's added list and b's entry
	// for 10 grows.
	a, b := sibling(14, here), sibling(10, append(slices.Clone(here), elsewhere))
	for _, p := range []*Postings{parent, a, b} {
		requireCellInvariant(t, fmt.Sprint(p.Entities()), p)
	}
	if !a.Contains(14) || b.Contains(14) || parent.Contains(14) || !slices.Equal(a.sizes(10), parent.sizes(10)) || slices.Equal(b.sizes(10), parent.sizes(10)) {
		t.Fatalf("entity tables leaked: a %v %v, b %v %v, parent %v %v", a.Entities(), a.sizes(10), b.Entities(), b.sizes(10), parent.Entities(), parent.sizes(10))
	}
	c := trace.MakeCell(1, ix.Root(ix.BaseUnit(0)))
	if _, added := a.cells.postings(c); slices.Contains(added, 10) {
		t.Fatalf("sibling a lists b's pair: %v", added)
	}
	if _, added := b.cells.postings(c); slices.Contains(added, 14) {
		t.Fatalf("sibling b lists a's pair: %v", added)
	}
	if _, added := parent.cells.postings(c); len(added) != 3 {
		t.Fatalf("parent's added list changed: %v", added)
	}
}

// TestRankInterleavesScoredZeros pins the hazard of offering provable zeros
// unscored: under a measure that weighs level 1 at 0, an entity sharing only
// a coarse cell with the query is scored and has degree exactly 0, and must
// interleave with the unscored zeros in ascending-ID order at every cut.
func TestRankInterleavesScoredZeros(t *testing.T) {
	ix := forest(2)
	st := trace.NewStore(ix)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	// Query (entity 7) at base 0. Base 3 shares only its root (scored,
	// degree 0 under w1=0); base 4 is under the other root (provable zero);
	// base 0 matches.
	var ids []trace.EntityID
	for e, base := range []int{4, 3, 4, 3, 0, 4, 3, 0} {
		st.Put(trace.NewSequencesFromCells(ix, trace.EntityID(e), []trace.Cell{at(1, base)}))
		ids = append(ids, trace.EntityID(e))
	}
	tree, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	blind := cellMeasures(t)[12]
	q := st.Get(7)
	want := BruteForceTopK(st, ids, q, len(ids), blind)
	if want[0] != (Result{4, want[0].Degree}) || want[0].Degree == 0 || want[1] != (Result{Entity: 0}) || want[6] != (Result{Entity: 6}) {
		t.Fatalf("fixture: scan ranks %v", want)
	}
	for i := range want {
		if got, _, _ := tree.TopK(q, i+1, blind); !slices.Equal(got, want[:i+1]) {
			t.Fatalf("TopK(%d) = %v, want %v", i+1, got, want[:i+1])
		}
		requireRank(t, "blind", tree, q, blind, i+1, 0, nil)
	}
	r := requireRank(t, "blind", tree, q, blind, len(ids), 0, nil)
	if s := r.Stats; s.Checked != 4 || s.Reached() != len(ids)-1 {
		t.Fatalf("Rank stats %+v, want 4 scored (3 of them to degree 0) and every other entity but the query (other root) zero-skipped", s)
	}
}

// FuzzTopKAgainstScan decodes bytes into a tiny population, one refresh, a
// query and a measure, and requires TopK and Rank — at floor 0 and under a
// decoded (want, floor, filter) — to equal the scan on both generations.
func FuzzTopKAgainstScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 4, 2, 1, 0, 1, 5, 2, 9, 3, 1, 2, 2, 9, 7, 7, 1, 3, 3})
	f.Add([]byte{12, 1, 6, 1, 0, 0, 1, 0, 4, 1, 0, 8, 1, 0, 12, 1, 0, 3, 1, 0, 1, 2, 0, 0, 0, 5})
	f.Add([]byte{5, 40, 9, 3, 1, 1, 2, 2, 3, 3, 3, 9, 9, 8, 8, 7, 7, 0, 200, 13, 6, 6, 6, 6, 6, 6, 250, 251, 252})
	measures := cellMeasures(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ix := forest(3)
		cells := func() []trace.Cell {
			var out []trace.Cell
			for n := 1 + next()%6; n > 0; n-- {
				out = append(out, trace.MakeCell(trace.Time(next()%10), ix.BaseUnit(spindex.BaseID(next()%ix.NumBase()))))
			}
			return out
		}
		m := measures[next()%len(measures)]
		k := 1 + next()%20
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		for e, n := trace.EntityID(0), trace.EntityID(1+next()%12); e < n; e++ {
			st.Put(trace.NewSequencesFromCells(ix, e, cells()))
			ids = append(ids, e)
		}
		tree, err := BuildPostings(ix, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(ids[next()%len(ids)])
		if next()%2 == 1 {
			q = trace.NewSequencesFromCells(ix, -999, cells())
		}
		// A floor on the degree of a result a few places on, or between
		// two, so floors land on ties and between results, and a filter
		// that drops every entity whose ID a decoded mask's bit clears.
		ranked := func(label string, p *Postings) {
			full := BruteForceTopK(p.src, p.Entities(), q, p.Len(), m)
			floor := 0.0
			if i := next(); i%3 == 0 && len(full) > 0 {
				floor = full[min(i/3, len(full)-1)].Degree
			} else if i%3 == 1 && len(full) > 1 {
				j := min(i/3, len(full)-2)
				floor = (full[j].Degree + full[j+1].Degree) / 2
			}
			var keep func(trace.EntityID) bool
			if mask := next(); mask != 0 {
				keep = func(e trace.EntityID) bool { return mask>>(e%8)&1 == 1 }
			}
			requireRank(t, label, p, q, m, 1+next()%12, floor, keep)
		}
		requireExact(t, "built", tree, q, k, m)
		ranked("built", tree)
		// One refresh: an indexed entity gets different data, the next one
		// arrives.
		dst := st.Derive()
		changed, arrived := ids[next()%len(ids)], trace.EntityID(len(ids))
		dst.Put(trace.NewSequencesFromCells(ix, changed, cells()))
		dst.Put(trace.NewSequencesFromCells(ix, arrived, cells()))
		derived, err := tree.Derive(dst, []trace.EntityID{changed, arrived})
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, "derived", derived, q, k, m)
		ranked("derived", derived)
		requireExact(t, "parent", tree, q, k, m)
	})
}

// TestSizedBoundSaturation: an entity with more cells at a level than a size
// byte holds (saturated there, its size unknown to the bound) is found and
// ranked exactly, as a candidate and as the query, before and after a Derive
// that shrinks one of them below saturation and grows another past it.
func TestSizedBoundSaturation(t *testing.T) {
	ix := forest(4) // 4 roots, 8 mid, 16 base units
	rng := rand.New(rand.NewSource(3))
	st := trace.NewStore(ix)
	span := func(e trace.EntityID, hours, bases int) *trace.Sequences {
		var cells []trace.Cell
		for h := 0; h < hours; h++ {
			for b := 0; b < bases; b++ {
				cells = append(cells, trace.MakeCell(trace.Time(h), ix.BaseUnit(spindex.BaseID(b))))
			}
		}
		return trace.NewSequencesFromCells(ix, e, cells)
	}
	var ids []trace.EntityID
	put := func(s *trace.Sequences) {
		st.Put(s)
		ids = append(ids, s.Entity)
	}
	put(span(0, 20, 16)) // 80 / 160 / 320 cells: the finest level saturated
	put(span(1, 70, 16)) // 280 / 560 / 1120: every level saturated
	put(span(2, 20, 16)) // the same as entity 0
	put(span(3, 70, 4))
	for e := trace.EntityID(4); e < 42; e++ {
		var cells []trace.Cell
		for n := 1 + rng.Intn(12); n > 0; n-- {
			cells = append(cells, trace.MakeCell(trace.Time(rng.Intn(70)), ix.BaseUnit(spindex.BaseID(rng.Intn(16)))))
		}
		put(trace.NewSequencesFromCells(ix, e, cells))
	}
	post, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got := post.sizes(0); !slices.Equal(got, []byte{81, 161, sizeSaturated}) {
		t.Fatalf("entity 0's entry %v, want 81 161 saturated", got)
	}
	if got := post.sizes(1); !slices.Equal(got, []byte{sizeSaturated, sizeSaturated, sizeSaturated}) {
		t.Fatalf("entity 1's entry %v, want saturated at every level", got)
	}
	check := func(label string, p *Postings) {
		t.Helper()
		requireCellInvariant(t, label, p)
		for _, qe := range []trace.EntityID{0, 1, 2, 3, 4, 11} {
			for _, m := range cellMeasures(t) {
				requireMarksSound(t, label, p, p.src.Get(qe), m)
				for _, k := range []int{1, 3, 10} {
					requireExact(t, label, p, p.src.Get(qe), k, m)
				}
			}
		}
	}
	check("built", post)
	dst := st.Derive()
	dst.Put(span(0, 3, 16))  // shrinks below saturation
	dst.Put(span(4, 30, 16)) // grows past it
	derived, err := post.Derive(dst, []trace.EntityID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	check("derived", derived)
	check("parent", post)
}

// TestTiersBucketOnlyWhatTheFrontierReaches: the frontier buckets a tier of
// hits only once its reach is in the running. A hub cell's long posting list
// is stamped last, so the entities only it names form the last tier; with its
// reach below the k-th degree (or a floor), TopK and Rank must answer exactly
// without bucketing any of them. And past 64 level-1 cells, the cells that
// share bit 63 form one tier, so no mask is bucketed twice and no entity comes
// back twice.
func TestTiersBucketOnlyWhatTheFrontierReaches(t *testing.T) {
	ix := forest(4)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	t.Run("hub", func(t *testing.T) {
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		put := func(cells ...trace.Cell) {
			e := trace.EntityID(st.Len())
			st.Put(trace.NewSequencesFromCells(ix, e, cells))
			ids = append(ids, e)
		}
		query := []trace.Cell{at(1, 0), at(2, 1), at(3, 2), at(10, 4)} // three level-1 cells under root 0, the hub under root 1
		for range 6 {
			put(query...) // the query and five copies
		}
		for i := range 4 {
			put(at(2, 1), at(10, 4+i)) // first met under the second cell
		}
		hubOnly := 60
		for i := range hubOnly {
			put(at(10, 4+i%4), at(trace.Time(20+i%7), 8+i%8), at(trace.Time(30+i%5), 12+i%4))
		}
		post, err := BuildPostings(ix, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(0)
		for _, m := range cellMeasures(t) {
			f, err := post.newFrontier(q, m)
			if err != nil {
				t.Fatal(err)
			}
			sc, hub := f.pooled, len(f.pooled.tiers)-2
			if got := sc.tiers[hub+1] - sc.tiers[hub]; hub != 3 || got != hubOnly {
				t.Fatalf("fixture %s: the last of %d tiers holds %d hits, want the %d only the hub names", m.Name(), hub+1, got, hubOnly)
			}
			// The hits met before the hub tier, the query among them: a
			// search that buckets more candidates reached the hub tier.
			before := sc.tiers[hub]
			top, reach := m.Degree(q, q), f.bound(1<<hub)
			f.release()
			if !(reach < top) {
				t.Fatalf("fixture %s: the hub tier's reach %v is not below the copies' degree %v", m.Name(), reach, top)
			}
			for k := 1; k <= 5; k++ {
				label := fmt.Sprintf("hub k=%d", k)
				requireExact(t, label, post, q, k, m)
				got, stats, err := post.TopK(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				if want := BruteForceTopK(st, ids, q, k, m); !slices.Equal(got, want) || stats.bucketed > before {
					t.Fatalf("%s %s: TopK %v bucketing %d candidates, want %v bucketing at most the %d hits before the hub tier", label, m.Name(), got, stats.bucketed, want, before)
				}
				odd := func(e trace.EntityID) bool { return e%2 == 1 }
				if r := requireRank(t, label, post, q, m, k, top, odd); r.Stats.bucketed > before {
					t.Fatalf("%s %s: Rank at floor %v bucketed %d candidates, more than the %d hits before the hub tier", label, m.Name(), top, r.Stats.bucketed, before)
				}
			}
			for k := 6; k <= len(ids); k += 7 {
				requireExact(t, fmt.Sprintf("hub k=%d", k), post, q, k, m)
			}
		}
	})

	t.Run("past 64 cells", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		put := func(cells []trace.Cell) {
			e := trace.EntityID(st.Len())
			st.Put(trace.NewSequencesFromCells(ix, e, cells))
			ids = append(ids, e)
		}
		const hours = 70 // the query's level-1 cells: (h, root 0) for every hour
		var query []trace.Cell
		for h := range hours {
			query = append(query, at(trace.Time(h), h%4))
		}
		put(query)
		// Entity i is posted under the cells of hours i and on, so hour h's
		// list holds h+2 entities — every length distinct — and the entities
		// first met from the 64th cell on all carry bit 63 alone.
		for i := range hours {
			var cells []trace.Cell
			for h := i; h < hours; h++ {
				cells = append(cells, at(trace.Time(h), rng.Intn(4)))
			}
			put(cells)
		}
		for range 20 { // strays under other roots: posted nowhere the query is
			put([]trace.Cell{at(trace.Time(rng.Intn(hours)), 4+rng.Intn(12))})
		}
		post, err := BuildPostings(ix, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(0)
		lengths := map[int]bool{}
		for _, c := range q.At(1) {
			sealed, added := post.cells.postings(c)
			lengths[len(sealed)+len(added)] = true
		}
		if len(q.At(1)) != hours || len(lengths) != hours {
			t.Fatalf("fixture: the query has %d level-1 cells and %d distinct list lengths, want %d of each", len(q.At(1)), len(lengths), hours)
		}
		for _, m := range cellMeasures(t) {
			requireMarksSound(t, "past 64 cells", post, q, m)
			for k := 1; k <= len(ids); k++ {
				requireExact(t, fmt.Sprintf("past 64 cells k=%d", k), post, q, k, m)
				got, _, err := post.TopK(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[trace.EntityID]bool{}
				for _, r := range got {
					if seen[r.Entity] {
						t.Fatalf("past 64 cells k=%d %s: entity %d returned twice in %v", k, m.Name(), r.Entity, got)
					}
					seen[r.Entity] = true
				}
			}
		}
	})
}

// TestDeriveChainResizes re-indexes entities along a chain of Derives with
// sequences both smaller and larger than before — the stale pairs of a shrunk
// entity stay posted while its table entry is its current sizes — through the
// compaction fold, and requires every generation exact.
func TestDeriveChainResizes(t *testing.T) {
	ix := forest(4)
	rng := rand.New(rand.NewSource(8))
	seq := func(e trace.EntityID, n int) *trace.Sequences {
		var cells []trace.Cell
		for ; n > 0; n-- {
			cells = append(cells, trace.MakeCell(trace.Time(rng.Intn(30)), ix.BaseUnit(spindex.BaseID(rng.Intn(16)))))
		}
		return trace.NewSequencesFromCells(ix, e, cells)
	}
	st := trace.NewStore(ix)
	var ids []trace.EntityID
	for e := range trace.EntityID(43) {
		ids = append(ids, e)
	}
	for _, e := range ids {
		st.Put(seq(e, 1+rng.Intn(10)))
	}
	post, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	measures := cellMeasures(t)
	folds := 0
	for gen := 1; gen <= 30; gen++ {
		dst := st.Derive()
		var dirty []trace.EntityID
		for i := 0; i < 4; i++ {
			e := ids[rng.Intn(len(ids))]
			size := 1 + rng.Intn(2) // smaller …
			if i%2 == 1 {
				size = 20 + rng.Intn(40) // … and larger
			}
			dst.Put(seq(e, size))
			dirty = append(dirty, e)
		}
		next, err := post.Derive(dst, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if &next.base[0] != &post.base[0] {
			folds++
		}
		st, post = dst, next
		label := fmt.Sprintf("gen %d", gen)
		requireCellInvariant(t, label, post)
		for _, qe := range []trace.EntityID{dirty[0], dirty[1], ids[rng.Intn(len(ids))]} {
			m := measures[rng.Intn(len(measures))]
			requireMarksSound(t, label, post, st.Get(qe), m)
			for _, k := range []int{1, 5} {
				requireExact(t, label, post, st.Get(qe), k, m)
			}
		}
	}
	if folds == 0 {
		t.Fatal("no Derive reached the compaction fold")
	}
}

// TestPostingOrderEdges drives the candidate order through the shapes where
// it could change an answer: a tie plateau of entities whose degree equals
// their bucket's bound, split over two buckets of equal bound with the smallest
// IDs in whichever is scanned last (a search that stopped at a tied bound would
// miss them); k beyond the candidates (zero-fill in ascending ID, with the
// scored zeros of the w1 = 0 measure interleaved); and IDs on both sides of
// the query's, as posted candidates and as zeros.
func TestPostingOrderEdges(t *testing.T) {
	ix := forest(4)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	for _, lowIDsUnder := range []int{0, 4} { // the base cell whose plateau holds the small IDs
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		put := func(cells ...trace.Cell) trace.EntityID {
			e := trace.EntityID(st.Len())
			st.Put(trace.NewSequencesFromCells(ix, e, cells))
			ids = append(ids, e)
			return e
		}
		zero := func() { put(at(2, 0), at(1, 9)) } // posted nowhere the query is
		zero()
		low := put(at(1, lowIDsUnder))
		for range 5 {
			put(at(1, lowIDsUnder))
		}
		high := put(at(1, 4-lowIDsUnder))
		for range 5 {
			put(at(1, 4-lowIDsUnder))
		}
		zero()
		query := put(at(1, 0), at(1, 4)) // two level-1 cells, alike underneath
		put(at(1, 0), at(1, 4))          // posted under both cells
		put(at(1, 3))                    // shares a root only: degree 0 under w1 = 0
		zero()
		put(at(1, 0), at(1, 4))
		put(at(1, 7))
		put(at(1, 2))
		zero()
		zero()
		tree, err := BuildPostings(ix, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(query)
		for _, m := range cellMeasures(t) {
			label := fmt.Sprintf("low IDs under base %d", lowIDsUnder)
			requireMarksSound(t, label, tree, q, m)
			f, err := tree.newFrontier(q, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []trace.EntityID{low, high} {
				if ub, deg := f.bound(f.pooled.maskOf(e)), m.Degree(q, st.Get(e)); ub != deg {
					t.Fatalf("fixture %s: entity %d has degree %v under a bucket bound of %v: no plateau", m.Name(), e, deg, ub)
				}
			}
			if len(f.pooled.mask) != int(tree.cells.maxID)+1 {
				t.Fatalf("fixture: mask table of %d for posted IDs up to %d", len(f.pooled.mask), tree.cells.maxID)
			}
			f.release()
			for k := 1; k <= len(ids)+2; k++ {
				requireExact(t, label, tree, q, k, m)
			}
		}
	}
}

// TestRemovedEntityIsNoCandidate: the index keeps a removed entity's pairs,
// and postings are the candidate list — so a query on exactly its cells must
// not bring it back, on the index it was removed from (in place, as
// Tree.Remove removes) or on any generation derived from that, the compaction
// fold included, until it is indexed again.
func TestRemovedEntityIsNoCandidate(t *testing.T) {
	ix := forest(2)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	st := trace.NewStore(ix)
	var ids []trace.EntityID
	for e := range trace.EntityID(12) {
		st.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(trace.Time(e%4), int(e%8)), at(2, 5)}))
		ids = append(ids, e)
	}
	const victim, second = trace.EntityID(7), trace.EntityID(3)
	tree, err := BuildPostings(ix, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	m := cellMeasures(t)[0]
	example := trace.NewSequencesFromCells(ix, -1, st.Get(victim).Base())
	check := func(label string, tree *Postings, present bool) {
		t.Helper()
		for _, k := range []int{1, 3, tree.Len() + 1} {
			requireExact(t, label, tree, example, k, m) // against the scan of tree.Entities(), through TopK and Rank
		}
		got, _, err := tree.TopK(example, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		if first := got[0].Entity == victim && got[0].Degree == 1; first != present {
			t.Fatalf("%s: TopK = %v, victim present = %t", label, got, present)
		}
	}
	check("built", tree, true)
	tree.remove(victim)
	check("removed", tree, false)
	// Derive until the added pairs fold into a fresh base, which rebuilds
	// from pairs and so keeps the victim's.
	folded := false
	for next := trace.EntityID(st.Len()); !folded; next++ {
		dst := st.Derive()
		dst.Put(trace.NewSequencesFromCells(ix, next, []trace.Cell{at(trace.Time(next%8), int(next%8)), at(3, 7)}))
		derived, err := tree.Derive(dst, []trace.EntityID{next})
		if err != nil {
			t.Fatal(err)
		}
		folded = &derived.cells.posts[0] != &tree.cells.posts[0]
		st, tree = dst, derived
		check(fmt.Sprintf("derived with %d", next), tree, false)
	}
	if sealed, _ := tree.cells.postings(trace.MakeCell(3, ix.Root(ix.BaseUnit(7)))); !slices.Contains(sealed, victim) {
		t.Fatal("fixture: the fold dropped the victim's pairs; the test checks nothing")
	}
	// A Remove on the derived generation is tracked too.
	tree.remove(second)
	if got, _, _ := tree.TopK(trace.NewSequencesFromCells(ix, -1, st.Get(second).Base()), tree.Len(), m); slices.ContainsFunc(got, func(r Result) bool { return r.Entity == second }) {
		t.Fatalf("removed entity %d returned: %v", second, got)
	}
	tree.add(victim, st.Get(victim))
	check("re-inserted", tree, true)
	if n := removedCount(tree); n != 1 {
		t.Fatalf("the entity table marks %d entities removed, want only %d", n, second)
	}
}

// TestConcurrentSearchesShareNoScratch runs TopK and Rank under
// floors and filters on one index from several goroutines (go test -race):
// the pooled scratch holds a query's masks, tiers, bucket heap and candidates.
func TestConcurrentSearchesShareNoScratch(t *testing.T) {
	_, st, tree := buildRandomPostings(t, 71, 120)
	m := measuresFor(t, 3)[0]
	want := make([][]Result, 8)
	for e := range want {
		want[e] = BruteForceTopK(st, tree.Entities(), st.Get(trace.EntityID(e)), tree.Len(), m)
	}
	even := func(e trace.EntityID) bool { return e%2 == 0 }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				a, b := (g+round)%len(want), (g+3*round+1)%len(want)
				floor := want[a][round%9].Degree
				var wantA []Result
				for _, r := range want[a] {
					if r.Degree >= floor && r.Entity%2 == 0 {
						wantA = append(wantA, r)
					}
				}
				if got, err := tree.Rank(st.Get(trace.EntityID(a)), len(want[a]), floor, even, m); err != nil || !slices.Equal(got.Results, wantA) {
					t.Errorf("goroutine %d round %d: Rank(%d) = %v %v, want %v", g, round, a, got.Results, err, wantA)
				}
				if got, _, err := tree.TopK(st.Get(trace.EntityID(b)), 7, m); err != nil || !slices.Equal(got, want[b][:7]) {
					t.Errorf("goroutine %d round %d: TopK(%d) = %v %v, want %v", g, round, b, got, err, want[b][:7])
				}
			}
		}()
	}
	wg.Wait()
}
