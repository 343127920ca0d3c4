package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// The level-1 cell index can be wrong by omission — a missing (cell, entity)
// pair turns a real answer into a skipped zero — and, now that its postings
// are the candidate list, by a stale pair of a removed entity or an order
// that stops a bucket too early. These tests hunt all three — through every
// constructor, across copy-on-write generations, and for every entity-ID
// shape the mask table treats differently.

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

// cellWorld is a population under maintenance: the newest tree generation,
// the store it reads, and every generation frozen behind it.
type cellWorld struct {
	t     *testing.T
	rng   *rand.Rand
	ix    *spindex.Index
	st    *trace.Store
	tree  *Tree
	fresh []trace.EntityID // IDs not used yet
	past  []frozenCells
}

// frozenCells is a generation Derive froze, with a deep copy of its cell
// index taken at that moment.
type frozenCells struct {
	tree              *Tree
	keys              []trace.Cell
	offs              []uint32
	posts             []trace.EntityID
	added             map[trace.Cell][]trace.EntityID
	entities, answers string
}

func newCellWorld(t *testing.T, seed int64) *cellWorld {
	w := &cellWorld{t: t, rng: rand.New(rand.NewSource(seed)), ix: forest(4)}
	w.st = trace.NewStore(w.ix)
	// Dense IDs the mask table holds, and the shapes it cannot: negative,
	// sparse, and far beyond any table.
	ids := []trace.EntityID{-7, -1, 1 << 30, 1<<30 + 1, 900, 5000, 77777}
	for e := trace.EntityID(0); e < 70; e++ {
		ids = append(ids, e)
	}
	w.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	built := ids[:45]
	w.fresh = ids[45:]
	for _, e := range built {
		w.st.AddRecords(e, w.records(e))
	}
	const companion = trace.EntityID(70) // shares exactly the bit-63 tail of the wide example
	w.st.Put(trace.NewSequencesFromCells(w.ix, companion, lateCells(w.ix)))
	built = append(built, companion)
	fam, err := sighash.NewFamily(w.ix, cellHorizon, 16, uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	if w.tree, err = Build(w.ix, fam, w.st, built); err != nil {
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
	es := w.tree.Entities()
	w.rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es[:min(n, len(es))]
}

// derive is a refresh: appended visits for some indexed entities and
// brand-new entities, folded by Store.Derive + Tree.Derive.
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
	next, err := w.tree.Derive(dst, dirty)
	if err != nil {
		w.t.Fatalf("Derive: %v", err)
	}
	w.st, w.tree = dst, next
}

func (w *cellWorld) freeze() frozenCells {
	ci := w.tree.cells
	fz := frozenCells{
		tree: w.tree, keys: slices.Clone(ci.keys), offs: slices.Clone(ci.offs), posts: slices.Clone(ci.posts),
		added: map[trace.Cell][]trace.EntityID{}, entities: fmt.Sprint(w.tree.Entities()),
	}
	for c, es := range ci.added {
		fz.added[c] = slices.Clone(es)
	}
	fz.answers = w.fingerprint(w.tree)
	return fz
}

// fingerprint renders a few answers of a tree, to show a frozen generation
// still answers as it did.
func (w *cellWorld) fingerprint(tree *Tree) string {
	m := cellMeasures(w.t)[0]
	var out []Result
	for _, e := range tree.Entities()[:3] {
		res, _, err := tree.TopK(tree.src.Get(e), 5, m)
		if err != nil {
			w.t.Fatal(err)
		}
		out = append(out, res...)
	}
	return fmt.Sprint(out)
}

// update replaces entities' data outright (the old cells are gone, the
// index keeps their pairs) in place, through the copy-on-write Update of a
// derived tree or the plain one of a private tree.
func (w *cellWorld) update() {
	for _, e := range w.pick(3) {
		w.st.AddRecords(e, w.records(e))
		if err := w.tree.Update(e); err != nil {
			w.t.Fatalf("Update(%d): %v", e, err)
		}
	}
}

func (w *cellWorld) remove() {
	for _, e := range w.pick(2) {
		if err := w.tree.Remove(e); err != nil {
			w.t.Fatalf("Remove(%d): %v", e, err)
		}
	}
}

func (w *cellWorld) clone() {
	st := w.st.Clone()
	tree, err := w.tree.Clone(st)
	if err != nil {
		w.t.Fatalf("Clone: %v", err)
	}
	w.st, w.tree = st, tree
}

// reload replaces the tree by what an image of it loads as: replayed over the
// store with its cell index re-sealed (a stream read of an image without
// sequences), or served in place with the stored cell index — base, added
// pairs and stale pairs folded by the writer — adopted as is.
func (w *cellWorld) reload(mapped bool) {
	var buf bytes.Buffer
	var seqs SequenceSource
	if mapped {
		seqs = w.st
	}
	if _, err := w.tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, seqs, snapshotNames); err != nil {
		w.t.Fatalf("WriteSnapshot: %v", err)
	}
	load := func() (*Tree, error) { return readSnapshot(&buf, w.ix, w.st) }
	if mapped {
		load = func() (*Tree, error) { return openMapped(buf.Bytes(), w.ix, w.st) }
	}
	tree, err := load()
	if err != nil {
		w.t.Fatalf("reloading the tree (mapped %t): %v", mapped, err)
	}
	w.tree = tree
}

// step advances the world by one generation; the schedule strings several
// derives together so the added layer reaches its compaction fold.
func (w *cellWorld) step(gen int) string {
	switch []string{"derive", "derive", "update", "derive", "remove", "derive", "derive", "remap", "clone", "derive", "update", "reload"}[gen%12] {
	case "derive":
		w.derive()
		return "derive"
	case "update":
		w.update()
		return "update"
	case "remove":
		w.remove()
		return "remove"
	case "clone":
		w.clone()
		return "clone"
	case "remap":
		w.reload(true)
		return "remap"
	}
	w.reload(false)
	return "reload"
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

// requireMarksSound checks the two facts the skips rest on, entity by entity:
// an unmarked entity has degree exactly 0, and a marked one's cell-index
// bound dominates its degree.
func requireMarksSound(t *testing.T, label string, tree *Tree, q *trace.Sequences, m adm.Measure) {
	t.Helper()
	f, err := tree.newFrontier(q, m, true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if !f.marked {
		t.Fatalf("%s %s: the cell index does not apply", label, m.Name())
	}
	for _, e := range tree.Entities() {
		if e == q.Entity {
			continue
		}
		deg, mask := m.Degree(q, tree.src.Get(e)), f.pooled.maskOf(e)
		if mask == 0 && deg != 0 {
			t.Fatalf("%s %s: entity %d is unmarked but has degree %v", label, m.Name(), e, deg)
		}
		if ub := f.bound(mask); mask != 0 && ub < deg {
			t.Fatalf("%s %s: entity %d mask %#x: bound %v < degree %v", label, m.Name(), e, mask, ub, deg)
		}
	}
}

// requireExact checks TopK, ApproxTopK(ε=0) and the Iter prefix against the
// scan, bit for bit; the counters' identity; Iter.Bound non-increasing and
// above every later degree; and ApproxTopK's guarantee with ε > 0 and with a
// budget.
func requireExact(t *testing.T, label string, tree *Tree, q *trace.Sequences, k int, m adm.Measure) SearchStats {
	t.Helper()
	want := BruteForceTopK(tree.src, tree.Entities(), q, k, m)
	got, stats, err := tree.TopK(q, k, m)
	if err != nil {
		t.Fatalf("%s: TopK: %v", label, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d %s: TopK\n got  %v\n want %v", label, k, m.Name(), got, want)
	}
	approx, as, err := tree.ApproxTopK(q, k, m, ApproxOptions{})
	if err != nil {
		t.Fatalf("%s: ApproxTopK: %v", label, err)
	}
	if !slices.Equal(approx, want) || as.SearchStats != stats {
		t.Fatalf("%s k=%d %s: ApproxTopK(ε=0)\n got  %v %+v\n want %v %+v", label, k, m.Name(), approx, as.SearchStats, want, stats)
	}
	others := tree.Len()
	if tree.Contains(q.Entity) {
		others--
	}
	if stats.Reached() != others || stats.NodesPopped != 0 {
		t.Fatalf("%s k=%d %s: %+v does not account for %d entities once each, without a traversal", label, k, m.Name(), stats, others)
	}
	for _, opts := range []ApproxOptions{{Epsilon: 0.3}, {MaxChecked: 2}, {Epsilon: 0.1, MaxChecked: 4}} {
		approx, as, err := tree.ApproxTopK(q, k, m, opts)
		if err != nil || len(approx) > len(want) || len(approx) == 0 && len(want) > 0 {
			t.Fatalf("%s k=%d %s: ApproxTopK(%+v) = %v, %v; the scan has %d", label, k, m.Name(), opts, approx, err, len(want))
		}
		if opts.MaxChecked > 0 && as.Checked > opts.MaxChecked {
			t.Fatalf("%s k=%d %s: ApproxTopK(%+v) computed %d degrees", label, k, m.Name(), opts, as.Checked)
		}
		if !as.BudgetExhausted && (as.AchievedEpsilon > opts.Epsilon+1e-12 || len(approx) < len(want)) {
			t.Fatalf("%s k=%d %s: ApproxTopK(%+v) = %v, achieved ε %v, with budget to spare", label, k, m.Name(), opts, approx, as.AchievedEpsilon)
		}
		// The guarantee: no entity left out beats the last one returned by
		// more than the achieved ε.
		for _, e := range tree.Entities() {
			if e == q.Entity || slices.ContainsFunc(approx, func(r Result) bool { return r.Entity == e }) {
				continue
			}
			if last, deg := approx[len(approx)-1].Degree, m.Degree(q, tree.src.Get(e)); last < (1-as.AchievedEpsilon)*deg-1e-12 {
				t.Fatalf("%s k=%d %s: ApproxTopK(%+v) ends at %v with achieved ε %v, entity %d left out has %v", label, k, m.Name(), opts, last, as.AchievedEpsilon, e, deg)
			}
		}
	}
	it, err := tree.NewIter(q, m)
	if err != nil {
		t.Fatalf("%s: NewIter: %v", label, err)
	}
	bound := it.Bound()
	for i, wr := range want {
		r, ok, err := it.Next()
		if err != nil || !ok || r != wr {
			t.Fatalf("%s k=%d %s: Iter[%d] = %v %t %v, want %v (scan %v)", label, k, m.Name(), i, r, ok, err, wr, want)
		}
		if b := it.Bound(); r.Degree > bound || b > bound {
			t.Fatalf("%s k=%d %s: Iter[%d] = %v under Bound %v, then Bound %v", label, k, m.Name(), i, r, bound, b)
		} else {
			bound = b
		}
	}
	if len(want) < k {
		if r, ok, _ := it.Next(); ok {
			t.Fatalf("%s: Iter emitted %v past the population", label, r)
		}
	}
	return stats
}

// requireCellInvariant checks the index invariant — every level-1 cell of
// every indexed entity's current sequences lists the entity — and the
// structure postings and add rely on.
func requireCellInvariant(t *testing.T, label string, tree *Tree) {
	t.Helper()
	ci := tree.cells
	if ci == nil {
		t.Fatalf("%s: tree has no cell index", label)
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
	for _, es := range ci.added {
		pairs += len(es)
	}
	if pairs != ci.addedPairs {
		t.Fatalf("%s: addedPairs = %d, added layer holds %d", label, ci.addedPairs, pairs)
	}
	for _, e := range tree.Entities() {
		if e > ci.maxID {
			t.Fatalf("%s: entity %d above maxID %d", label, e, ci.maxID)
		}
		for _, c := range tree.src.Get(e).At(1) {
			sealed, added := ci.postings(c)
			if !slices.Contains(sealed, e) && !slices.Contains(added, e) {
				t.Fatalf("%s: entity %d missing from the postings of its level-1 cell %v", label, e, c)
			}
		}
	}
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
			if err := w.tree.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, q := range w.queries() {
				for _, m := range measures {
					requireMarksSound(t, label, w.tree, q, m)
					for _, k := range []int{1, 10, w.tree.Len() + 5} {
						stats := requireExact(t, label, w.tree, q, k, m)
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
// ones frozen behind them.
func TestCellIndexInvariantModel(t *testing.T) {
	w := newCellWorld(t, 11)
	requireCellInvariant(t, "build", w.tree)
	folds, remaps := 0, 0
	for gen := 0; gen < 33; gen++ {
		before := w.tree.cells
		op := w.step(gen)
		label := fmt.Sprintf("gen %d (%s)", gen+1, op)
		requireCellInvariant(t, label, w.tree)
		if op == "derive" && len(w.tree.cells.posts) > 0 && len(before.posts) > 0 {
			if &w.tree.cells.posts[0] != &before.posts[0] {
				folds++ // compaction built a fresh base
			} else if len(w.tree.cells.posts) != len(before.posts) {
				t.Fatalf("%s: derived base shares the parent's array but not its length", label)
			}
		}
		if op == "remap" {
			// A stored index is the writer's fold: nothing added, nothing
			// gone, every pair of base and added outside the removed entities.
			got := w.tree.cells
			if len(got.added)+len(got.gone) != 0 {
				t.Fatalf("%s: adopted index has %d added cells and %d removed entities", label, len(got.added), len(got.gone))
			}
			if want := seal(before.pairs(before.gone)); !slices.Equal(got.keys, want.keys) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.posts, want.posts) {
				t.Fatalf("%s: adopted index differs from the saved one's pairs", label)
			}
			if before.addedPairs > 0 && len(before.gone) > 0 {
				remaps++
			}
		}
		if op == "clone" || op == "reload" {
			// A re-sealed index is exactly the current sequences' pairs.
			want := sealCells(w.st, w.tree.Entities())
			if got := w.tree.cells; !slices.Equal(got.keys, want.keys) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.posts, want.posts) || len(got.added) != 0 {
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
		ci := fz.tree.cells
		if !slices.Equal(ci.keys, fz.keys) || !slices.Equal(ci.offs, fz.offs) || !slices.Equal(ci.posts, fz.posts) ||
			!maps.EqualFunc(ci.added, fz.added, slices.Equal[[]trace.EntityID]) {
			t.Fatalf("frozen generation %d: cell index changed after it was derived from", i)
		}
		if got := fmt.Sprint(fz.tree.Entities()); got != fz.entities {
			t.Fatalf("frozen generation %d: entities changed", i)
		}
		if got := w.fingerprint(fz.tree); got != fz.answers {
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
	fam, err := sighash.NewFamily(ix, cellHorizon, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ix, fam, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.cells.posts); n != 100000 {
		t.Fatalf("parent has %d postings, want 100000", n)
	}
	// Entity 3 changes, 20000 is new, 7000 is dirty with unchanged cells:
	// its pairs are all in the base already and must not be added again.
	dst := st.Derive()
	dirty := []trace.EntityID{3, 7000, 20000}
	for _, e := range []trace.EntityID{3, 20000} {
		dst.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{trace.MakeCell(1, ix.BaseUnit(0)), trace.MakeCell(39, ix.BaseUnit(15))}))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	next, err := tree.Derive(dst, dirty)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if &next.cells.posts[0] != &tree.cells.posts[0] || &next.cells.keys[0] != &tree.cells.keys[0] {
		t.Fatal("derived index copied the parent's base")
	}
	if next.cells.addedPairs < 2 || next.cells.addedPairs > 4 {
		t.Fatalf("derived index added %d pairs; entity 20000 brings 2, entity 3 at most 2, entity 7000 none", next.cells.addedPairs)
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(len(tree.cells.posts)*4/2); got > limit {
		t.Fatalf("Derive allocated %d bytes; half a copy of the postings is %d", got, limit)
	}
	requireCellInvariant(t, "derived", next)
	requireCellInvariant(t, "parent", tree)
}

// TestCellIndexSiblingDerives: Derive freezes its receiver but may be called
// on it again, so two generations can descend from one parent; a pair one of
// them adds must never appear in (or overwrite a pair of) the other.
func TestCellIndexSiblingDerives(t *testing.T) {
	ix := forest(2)
	st := trace.NewStore(ix)
	here := []trace.Cell{trace.MakeCell(1, ix.BaseUnit(0))}
	var sealed []trace.EntityID
	for e := trace.EntityID(100); e < 110; e++ { // a base big enough that three added pairs do not fold
		st.Put(trace.NewSequencesFromCells(ix, e, here))
		sealed = append(sealed, e)
	}
	fam, err := sighash.NewFamily(ix, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := Build(ix, fam, st, sealed)
	if err != nil {
		t.Fatal(err)
	}
	// Plain inserts leave the parent's added list for the cell with spare
	// capacity — the array a careless sibling would append into.
	for e := trace.EntityID(1); e <= 3; e++ {
		st.Put(trace.NewSequencesFromCells(ix, e, here))
		if err := parent.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	sibling := func(e trace.EntityID) *Tree {
		dst := st.Derive()
		dst.Put(trace.NewSequencesFromCells(ix, e, here))
		d, err := parent.Derive(dst, []trace.EntityID{e})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := sibling(10), sibling(20)
	for _, tree := range []*Tree{parent, a, b} {
		requireCellInvariant(t, fmt.Sprint(tree.Entities()), tree)
	}
	c := trace.MakeCell(1, ix.Root(ix.BaseUnit(0)))
	if _, added := a.cells.postings(c); slices.Contains(added, 20) {
		t.Fatalf("sibling a lists b's entity: %v", added)
	}
	if _, added := parent.cells.postings(c); len(added) != 3 {
		t.Fatalf("parent's added list changed: %v", added)
	}
}

// TestIterInterleavesScoredZeros pins the hazard of keeping provable zeros
// out of Iter's heap: under a measure that weighs level 1 at 0, an entity
// sharing only a coarse cell with the query is scored and has degree exactly
// 0, and must interleave with the set-aside zeros in ascending-ID order.
func TestIterInterleavesScoredZeros(t *testing.T) {
	ix := forest(2)
	st := trace.NewStore(ix)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	// Query at base 0. Base 3 shares only its root (scored, degree 0 under
	// w1=0); base 4 is under the other root (provable zero); base 0 matches.
	st.Put(trace.NewSequencesFromCells(ix, 100, []trace.Cell{at(1, 0)}))
	for e, base := range map[trace.EntityID]int{1: 4, 2: 3, 3: 4, 4: 3, 5: 0, 6: 4, 7: 3} {
		st.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(1, base)}))
	}
	fam, err := sighash.NewFamily(ix, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []trace.EntityID{1, 2, 3, 4, 5, 6, 7, 100}
	tree, err := Build(ix, fam, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	blind := cellMeasures(t)[12]
	q := st.Get(100)
	want := BruteForceTopK(st, ids, q, len(ids), blind)
	if want[0] != (Result{5, want[0].Degree}) || want[0].Degree == 0 || want[1] != (Result{Entity: 1}) || want[6] != (Result{Entity: 7}) {
		t.Fatalf("fixture: scan ranks %v", want)
	}
	it, err := tree.NewIter(q, blind)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range want {
		r, ok, err := it.Next()
		if err != nil || !ok || r != wr {
			t.Fatalf("Iter[%d] = %v %t %v, want %v", i, r, ok, err, wr)
		}
		if got, _, _ := tree.TopK(q, i+1, blind); !slices.Equal(got, want[:i+1]) {
			t.Fatalf("TopK(%d) = %v, want %v", i+1, got, want[:i+1])
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("Iter emitted past the population")
	}
	if s := it.Stats(); s.Checked != 4 || s.Checked+s.BoundSkipped+s.ZeroSkipped != len(ids)-1 {
		t.Fatalf("Iter stats %+v, want 4 scored (3 of them to degree 0) and every other entity but the query (other root) zero-skipped", s)
	}
}

// FuzzTopKAgainstScan decodes bytes into a tiny population, one refresh, a
// query and a measure, and requires TopK, ApproxTopK(ε=0) and the Iter
// prefix to equal the scan on both generations.
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
		shapes := []func(i int) trace.EntityID{
			func(i int) trace.EntityID { return trace.EntityID(i) },
			func(i int) trace.EntityID { return trace.EntityID(-1 - i) },
			func(i int) trace.EntityID { return trace.EntityID(1000 * i) },
			func(i int) trace.EntityID { return trace.EntityID(1<<30 + i) },
		}
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		for i, n := 0, 1+next()%12; i < n; i++ {
			e := shapes[next()%len(shapes)](i)
			st.Put(trace.NewSequencesFromCells(ix, e, cells()))
			ids = append(ids, e)
		}
		fam, err := sighash.NewFamily(ix, 8, 4, 1) // some cells fall past the horizon
		if err != nil {
			t.Fatal(err)
		}
		tree, err := Build(ix, fam, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(ids[next()%len(ids)])
		if next()%2 == 1 {
			q = trace.NewSequencesFromCells(ix, -999, cells())
		}
		requireExact(t, "built", tree, q, k, m)
		// One refresh: an indexed entity gets different data, a new one
		// arrives.
		dst := st.Derive()
		changed := ids[next()%len(ids)]
		dst.Put(trace.NewSequencesFromCells(ix, changed, cells()))
		dst.Put(trace.NewSequencesFromCells(ix, 50, cells()))
		derived, err := tree.Derive(dst, []trace.EntityID{changed, 50})
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, "derived", derived, q, k, m)
		requireExact(t, "parent", tree, q, k, m)
	})
}

// TestPostingOrderEdges drives the candidate order through the shapes where
// it could change an answer: a tie plateau of entities whose degree equals
// their bucket's bound, split over two buckets of equal bound with the smallest
// IDs in whichever is scanned last (a search that stopped at a tied bound would
// miss them); k beyond the candidates (zero-fill in ascending ID, with the
// scored zeros of the w1 = 0 measure interleaved); and IDs negative, huge and
// past the mask table both as posted candidates and as zeros.
func TestPostingOrderEdges(t *testing.T) {
	ix := forest(4)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	const query = trace.EntityID(500)
	for _, lowIDsUnder := range []int{0, 4} { // the base cell whose plateau holds the small IDs
		st := trace.NewStore(ix)
		var ids []trace.EntityID
		put := func(e trace.EntityID, cells ...trace.Cell) {
			st.Put(trace.NewSequencesFromCells(ix, e, cells))
			ids = append(ids, e)
		}
		put(query, at(1, 0), at(1, 4)) // two level-1 cells, alike underneath
		for i := trace.EntityID(0); i < 6; i++ {
			put(1+i, at(1, lowIDsUnder))
			put(100+i, at(1, 4-lowIDsUnder))
		}
		put(-3, at(1, 0), at(1, 4)) // posted under both cells, IDs the table does not hold
		put(1<<30, at(1, 0), at(1, 4))
		put(77777, at(1, 3)) // shares a root only: degree 0 under w1 = 0
		put(-9, at(1, 7))
		put(50, at(1, 2))
		for _, e := range []trace.EntityID{-7, 0, 60, 2000, 1<<30 + 1} { // posted nowhere the query is
			put(e, at(2, 0), at(1, 9))
		}
		fam, err := sighash.NewFamily(ix, 8, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := Build(ix, fam, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Get(query)
		for _, m := range cellMeasures(t) {
			label := fmt.Sprintf("low IDs under base %d", lowIDsUnder)
			requireMarksSound(t, label, tree, q, m)
			f, err := tree.newFrontier(q, m, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []trace.EntityID{1, 100} {
				if ub, deg := f.bound(f.pooled.maskOf(e)), m.Degree(q, st.Get(e)); ub != deg {
					t.Fatalf("fixture %s: entity %d has degree %v under a bucket bound of %v: no plateau", m.Name(), e, deg, ub)
				}
			}
			if len(f.pooled.mask) > 500 || len(f.pooled.far) < 4 {
				t.Fatalf("fixture: mask table of %d with %d far IDs; the query, -3, 1<<30, 77777 and -9 must be past it", len(f.pooled.mask), len(f.pooled.far))
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
// not bring it back, on the tree it was removed from or on any generation
// derived from that, the compaction fold included, until it is inserted again.
func TestRemovedEntityIsNoCandidate(t *testing.T) {
	ix := forest(2)
	at := func(t trace.Time, base int) trace.Cell { return trace.MakeCell(t, ix.BaseUnit(spindex.BaseID(base))) }
	st := trace.NewStore(ix)
	var ids []trace.EntityID
	for e := trace.EntityID(1); e <= 12; e++ {
		st.Put(trace.NewSequencesFromCells(ix, e, []trace.Cell{at(trace.Time(e%4), int(e%8)), at(2, 5)}))
		ids = append(ids, e)
	}
	const victim, second = trace.EntityID(7), trace.EntityID(3)
	fam, err := sighash.NewFamily(ix, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ix, fam, st, ids)
	if err != nil {
		t.Fatal(err)
	}
	m := cellMeasures(t)[0]
	example := trace.NewSequencesFromCells(ix, -1, st.Get(victim).Base())
	check := func(label string, tree *Tree, present bool) {
		t.Helper()
		for _, k := range []int{1, 3, tree.Len() + 1} {
			requireExact(t, label, tree, example, k, m) // against the scan of tree.Entities(), through TopK, ApproxTopK and Iter
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
	if err := tree.Remove(victim); err != nil {
		t.Fatal(err)
	}
	check("removed", tree, false)
	// Derive until the added pairs fold into a fresh base, which rebuilds
	// from pairs and so keeps the victim's.
	folded := false
	for next := trace.EntityID(100); !folded; next++ {
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
	// A copy-on-write Remove on the derived generation is tracked too.
	if err := tree.Remove(second); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := tree.TopK(trace.NewSequencesFromCells(ix, -1, st.Get(second).Base()), tree.Len(), m); slices.ContainsFunc(got, func(r Result) bool { return r.Entity == second }) {
		t.Fatalf("removed entity %d returned: %v", second, got)
	}
	if err := tree.Insert(victim); err != nil {
		t.Fatal(err)
	}
	check("re-inserted", tree, true)
	if n := len(tree.cells.gone); n != 1 {
		t.Fatalf("gone holds %d entities, want only %d", n, second)
	}
}

// TestConcurrentSearchesShareNoScratch runs TopK, ApproxTopK and Iters that
// stay open across them on one tree from several goroutines (go test -race):
// the pooled scratch holds a query's masks, buckets and ordered candidates,
// and an Iter keeps its own until its flush.
func TestConcurrentSearchesShareNoScratch(t *testing.T) {
	_, st, tree := buildRandomWorld(t, 71, 120, 16)
	m := measuresFor(t, 3)[0]
	want := make([][]Result, 8)
	for e := range want {
		want[e] = BruteForceTopK(st, tree.Entities(), st.Get(trace.EntityID(e)), tree.Len(), m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				a, b := (g+round)%len(want), (g+3*round+1)%len(want)
				open, err := tree.NewIter(st.Get(trace.EntityID(a)), m)
				if err != nil {
					t.Error(err)
					return
				}
				pull := func(from, to int) {
					for i := from; i < to; i++ {
						if r, ok, err := open.Next(); err != nil || !ok || r != want[a][i] {
							t.Errorf("goroutine %d round %d: Iter(%d)[%d] = %v %t %v, want %v", g, round, a, i, r, ok, err, want[a][i])
						}
					}
				}
				pull(0, 4)
				if got, _, err := tree.TopK(st.Get(trace.EntityID(b)), 7, m); err != nil || !slices.Equal(got, want[b][:7]) {
					t.Errorf("goroutine %d round %d: TopK(%d) = %v %v, want %v", g, round, b, got, err, want[b][:7])
				}
				pull(4, 9)
				if got, _, err := tree.ApproxTopK(st.Get(trace.EntityID(b)), 3, m, ApproxOptions{}); err != nil || !slices.Equal(got, want[b][:3]) {
					t.Errorf("goroutine %d round %d: ApproxTopK(%d) = %v %v, want %v", g, round, b, got, err, want[b][:3])
				}
				if round%2 == 0 {
					pull(9, len(want[a])) // through the flush, which returns the scratch; odd rounds abandon theirs
				}
			}
		}()
	}
	wg.Wait()
}
