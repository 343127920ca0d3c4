package digitaltraces

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation chapter (each regenerates the figure's data at bench scale via
// internal/experiments) plus micro-benchmarks of the core operations the
// figures decompose into (signature computation, index build, search,
// update, external sort, block-store reads).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure-level benchmarks take seconds per iteration by design — they run
// the full workload generator + index + query sweep for the figure.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/baseline"
	"digitaltraces/internal/core"
	"digitaltraces/internal/experiments"
	"digitaltraces/internal/extsort"
	"digitaltraces/internal/mobility"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// benchScale keeps figure regeneration to seconds per iteration.
var benchScale = experiments.Scale{
	Name: "bench", Entities: 250, Side: 8, Days: 5, Detection: 0.12, Queries: 3,
	HashSweep: []int{1, 16, 128}, DefaultNH: 128, Seed: 1,
}

func benchFigure(b *testing.B, run func() ([]experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

func BenchmarkFig71_DataDistribution(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig71DataDistribution(benchScale) })
}

func BenchmarkFig72_ADMDistribution(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig72ADMDistribution(benchScale) })
}

func BenchmarkFig73_PEvsHashFunctions(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig73PEvsHashFunctions(benchScale) })
}

func BenchmarkFig74_PEvsDataCharacteristics(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig74DataCharacteristics(benchScale) })
}

func BenchmarkFig75_PEvsADMParams(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig75ADMParams(benchScale) })
}

func BenchmarkFig76_SearchTimeVsMemory(b *testing.B) {
	dir := b.TempDir()
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig76MemorySize(benchScale, dir) })
}

func BenchmarkFig77_PEvsResultSize(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig77ResultSize(benchScale) })
}

func BenchmarkFig78_IndexingCost(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig78IndexingCost(benchScale) })
}

func BenchmarkFig79_UpdateCost(b *testing.B) {
	benchFigure(b, func() ([]experiments.Table, error) { return experiments.Fig79UpdateCost(benchScale) })
}

// --- micro-benchmarks -------------------------------------------------

// benchWorld builds a reusable SYN world for micro-benchmarks, with the
// same sparse-observation + planted-associate settings the experiment
// harness uses so signature pruning is actually exercised (dense traces
// defeat any signature scheme; see EXPERIMENTS.md).
func benchWorld(b *testing.B, entities, nh int) (*spindex.Index, *trace.Store, *core.Tree, adm.Measure) {
	b.Helper()
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: 7, Levels: 4, WidthExp: 2, DensityExp: 2})
	if err != nil {
		b.Fatal(err)
	}
	im := benchIM()
	gen, err := mobility.NewGenerator(ix, im)
	if err != nil {
		b.Fatal(err)
	}
	st := gen.GenerateStore(entities)
	fam, err := sighash.NewFamily(ix, im.Horizon, nh, 1)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := core.Build(ix, fam, st, st.Entities())
	if err != nil {
		b.Fatal(err)
	}
	m, err := adm.NewPaperADM(4, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	return ix, st, tree, m
}

// benchIM is benchWorld's mobility model: a week of sparse IM detections
// with planted companions.
func benchIM() mobility.IMConfig {
	im := mobility.DefaultIMConfig()
	im.Horizon = 7 * 24
	im.DetectionProb = 0.06
	im.CompanionFrac = 0.9
	im.CompanionDeviation = 0.25
	return im
}

// BenchmarkSignature measures per-entity signature computation, the
// dominant index-construction cost (Figure 7.8a's slope).
func BenchmarkSignature(b *testing.B) {
	for _, nh := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("nh=%d", nh), func(b *testing.B) {
			ix, st, tree, _ := benchWorld(b, 50, nh)
			_ = ix
			_ = tree
			s := st.Get(0)
			fam, err := sighash.NewFamily(ix, 5*24, nh, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sighash.Signature(fam, s)
			}
		})
	}
}

// BenchmarkIndexBuild measures full MinSigTree construction (Figure 7.8a).
func BenchmarkIndexBuild(b *testing.B) {
	for _, nh := range []int{64, 256} {
		b.Run(fmt.Sprintf("nh=%d", nh), func(b *testing.B) {
			ix, st, _, _ := benchWorld(b, 300, 16)
			fam, err := sighash.NewFamily(ix, 5*24, nh, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(ix, fam, st, st.Entities()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopK measures query latency for varying k (Figure 7.7's axis)
// against the brute-force scan baseline.
func BenchmarkTopK(b *testing.B) {
	_, st, tree, m := benchWorld(b, 1000, 128)
	for _, k := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := st.Get(trace.EntityID(i % 50))
				if _, _, err := tree.TopK(q, k, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := st.Get(trace.EntityID(i % 50))
			core.BruteForceTopK(st, st.Entities(), q, 10, m)
		}
	})
}

// BenchmarkMappedTopK compares warm TopK(k=10) on a built DB with the same
// index saved and reopened (OpenIndex), on BenchmarkTopK's city. Every entity
// is queried once before the timer starts, so "mapped" measures an image
// whose sequences have all been decoded: it should cost what "built" does.
func BenchmarkMappedTopK(b *testing.B) {
	im := benchIM()
	built, err := SyntheticCity(CityConfig{Side: 7, Entities: 1000, Days: 7, Mobility: &im})
	if err != nil {
		b.Fatal(err)
	}
	if err := built.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.map")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := built.SaveIndex(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	mapped, err := NewGridDB(7, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.OpenIndex(path); err != nil {
		b.Fatal(err)
	}
	names := built.Entities()
	for _, c := range []struct {
		name string
		db   *DB
	}{{"built", built}, {"mapped", mapped}} {
		b.Run(c.name, func(b *testing.B) {
			for _, e := range names {
				if _, _, err := c.db.TopK(e, 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.db.TopK(names[i%len(names)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKSparse is BenchmarkTopK in the regime the serving benchmark
// (benchmark/) measures: sparse WiFi detections, where most of the
// population shares no cell with the query. checked/op counts the
// exact degrees computed, marked/op the candidates the level-1 cell index's
// postings yield; the bound order settles the difference.
func BenchmarkTopKSparse(b *testing.B) {
	ix, err := spindex.NewGrid(spindex.DefaultGridConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon = 14 * 24
	cfg.DetectionProb = 0.05
	gen, err := mobility.NewWiFiGenerator(ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := gen.GenerateStore(5000)
	post, err := core.BuildPostings(ix, st, st.Entities())
	if err != nil {
		b.Fatal(err)
	}
	m, err := adm.NewPaperADM(4, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("k=10", func(b *testing.B) {
		b.ReportAllocs()
		checked, marked := 0, 0
		for i := 0; i < b.N; i++ {
			_, stats, err := post.TopK(st.Get(trace.EntityID(i%500)), 10, m)
			if err != nil {
				b.Fatal(err)
			}
			checked += stats.Checked
			marked += stats.Checked + stats.BoundSkipped
		}
		b.ReportMetric(float64(checked)/float64(b.N), "checked/op")
		b.ReportMetric(float64(marked)/float64(b.N), "marked/op")
	})
	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.BruteForceTopK(st, st.Entities(), st.Get(trace.EntityID(i%500)), 10, m)
		}
	})
}

// BenchmarkPostingsDerive measures folding one writer batch of the serving
// benchmark's zipf_mixed_ingest workload — 32 visits over 8 existing
// entities — into a 20 000-device sparse population (benchmark/'s full
// size), timing core.Postings.Derive alone and chaining generations as a
// written DB does (so the added layer's folds are amortized in).
// BenchmarkAddVisitsAck times the write end to end.
func BenchmarkPostingsDerive(b *testing.B) {
	const devices, batchEntities, batchVisits = 20000, 8, 32
	ix, err := spindex.NewGrid(spindex.DefaultGridConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon = 14 * 24
	cfg.DetectionProb = 0.05
	gen, err := mobility.NewWiFiGenerator(ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := gen.GenerateStore(devices)
	ids := st.Entities()
	// batch draws the next batch: batchVisits one-hour visits, a quarter of
	// them on each of batchEntities distinct existing entities.
	rng := rand.New(rand.NewSource(1))
	batch := func() map[trace.EntityID][]trace.Record {
		out := map[trace.EntityID][]trace.Record{}
		for len(out) < batchEntities {
			e := ids[rng.Intn(len(ids))]
			for v := 0; v < batchVisits/batchEntities; v++ {
				h := trace.Time(rng.Intn(int(cfg.Horizon) - 1))
				out[e] = append(out[e], trace.Record{Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())), Start: h, End: h + 1})
			}
		}
		return out
	}
	b.Run("derive", func(b *testing.B) {
		post, err := core.BuildPostings(ix, st, ids)
		if err != nil {
			b.Fatal(err)
		}
		cur := st
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			next := cur.Derive()
			var dirty []trace.EntityID
			for e, recs := range batch() {
				next.Put(trace.NewSequencesMerged(ix, e, recs, cur.Get(e)))
				dirty = append(dirty, e)
			}
			b.StartTimer()
			if post, err = post.Derive(next, dirty); err != nil {
				b.Fatal(err)
			}
			cur = next
		}
	})
}

// BenchmarkAddVisitsAck measures an acknowledged write end to end: the
// serving benchmark writer's batch (8 existing entities × 4 one-hour visits)
// stored, folded and published before AddVisits returns, on a 20 000-device
// WiFi city. Each run starts from a freshly built city, so the chain of
// derived generations is as long as the run; fix it with -benchtime Nx.
// writers=4 splits the batches over four concurrent writers; folds/op counts
// publishes per write, below 1 when one fold captures several writers'
// batches.
func BenchmarkAddVisitsAck(b *testing.B) {
	const devices, batchEntities, batchVisits, days = 20000, 8, 32, 14
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := SyntheticWiFiCity(WiFiCityConfig{Side: 32, Devices: devices, Days: days})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.BuildIndex(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			batches := make([][]VisitRecord, b.N)
			for i := range batches {
				for range batchEntities {
					name := fmt.Sprintf("entity-%d", rng.Intn(devices))
					for range batchVisits / batchEntities {
						h := rng.Intn(days*24 - 1)
						batches[i] = append(batches[i], VisitRecord{Entity: name, Venue: VenueName(rng.Intn(db.NumVenues())), Start: TimeAt(h), End: TimeAt(h + 1)})
					}
				}
			}
			gen := db.IndexStats().Generation
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						if _, err := db.AddVisits(batches[i]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(db.IndexStats().Generation-gen)/float64(b.N), "folds/op")
		})
	}
}

// BenchmarkCacheRevalidate drives a cached DB the way the serving
// benchmark's zipf_mixed_ingest workload does, without the HTTP layer: on
// its population (20 000 sparse WiFi devices, 32×32 grid, 14 days) with
// WithQueryCache(1200), one op is a TopK (k = 10) for a Zipf(1.1)-drawn
// device, and every 800 ops an acknowledged write of 8 devices × 4 visits
// publishes a fold. hits/op is the cache hit rate: answers cached before a
// fold survive it when the fold cannot change them.
func BenchmarkCacheRevalidate(b *testing.B) {
	const devices, days, k, writeEvery, batchEntities, visitsEach = 20000, 14, 10, 800, 8, 4
	db, err := gridDB(32, 4, WithQueryCache(1200))
	if err != nil {
		b.Fatal(err)
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon = days * 24
	cfg.DetectionProb = 0.05
	gen, err := mobility.NewWiFiGenerator(db.ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	for i := range devices {
		recs := gen.Entity(trace.EntityID(i))
		if len(recs) == 0 {
			continue // never detected: nothing to index or query
		}
		names = append(names, fmt.Sprintf("entity-%d", i))
		db.preload(names[len(names)-1], recs)
	}
	if err := db.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(len(names))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(names)-1))
	batch := func() []VisitRecord {
		var out []VisitRecord
		for range batchEntities {
			name := names[rng.Intn(len(names))]
			for range visitsEach {
				h := rng.Intn(days*24 - 1)
				out = append(out, VisitRecord{Entity: name, Venue: VenueName(rng.Intn(db.NumVenues())), Start: TimeAt(h), End: TimeAt(h + 1)})
			}
		}
		return out
	}
	op := func(i int) bool {
		if i%writeEvery == writeEvery-1 {
			if _, err := db.AddVisits(batch()); err != nil {
				b.Fatal(err)
			}
		}
		_, qs, err := db.TopK(names[perm[zipf.Uint64()]], k)
		if err != nil {
			b.Fatal(err)
		}
		return qs.CacheHit
	}
	for i := range 2000 { // warm the cache, as the serving benchmark does
		op(i)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if op(i) {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkDegree times the exact-degree kernel on the three overlap shapes
// a search meets: no shared cell at all (the coarse-to-fine cascade stops
// after level 1), shared coarse cells only, and overlap down to the base
// level.
func BenchmarkDegree(b *testing.B) {
	ix := spindex.NewUniform(4, []int{3, 3, 4})
	m, err := adm.NewPaperADM(4, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	visits := func(e trace.EntityID, base spindex.BaseID, t0 trace.Time) *trace.Sequences {
		recs := make([]trace.Record, 12)
		for i := range recs {
			start := t0 + trace.Time(3*i)
			recs[i] = trace.Record{Entity: e, Base: base, Start: start, End: start + 1}
		}
		return trace.NewSequences(ix, e, recs)
	}
	q := visits(0, 0, 0)
	for _, tc := range []struct {
		name  string
		other *trace.Sequences
	}{
		{"disjoint", visits(1, 0, 1)},
		// Bases 0 and NumBase-1 meet only at the root.
		{"coarse-only", visits(1, spindex.BaseID(ix.NumBase()-1), 0)},
		{"overlapping", visits(1, 0, 18)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			sum := 0.0
			for i := 0; i < b.N; i++ {
				sum += m.Degree(q, tc.other)
			}
			benchSink = sum
		})
	}
}

// benchSink keeps the compiler from discarding a benchmarked result.
var benchSink float64

// BenchmarkStoreGet times the sequence lookup a search pays once per checked
// entity: on a root store (one indexed load), on a derived generation whose
// overlay holds a refresh's worth of rewritten entities, and on a store 64
// derives deep, each rewriting 4 entities (the overlay's levels probed in
// front of the load).
func BenchmarkStoreGet(b *testing.B) {
	_, root, _, _ := benchWorld(b, 1000, 16)
	ids := root.Entities()
	derived := root.Derive()
	for _, e := range ids[:8] {
		derived.Put(root.Get(e))
	}
	chained := derived
	for gen := 1; gen <= 64; gen++ {
		chained = chained.Derive()
		for _, e := range ids[4*gen : 4*gen+4] {
			chained.Put(root.Get(e))
		}
	}
	for _, tc := range []struct {
		name string
		st   *trace.Store
	}{{"root", root}, {"derived", derived}, {"chained", chained}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cells := 0
			for i := 0; i < b.N; i++ {
				cells += tc.st.Get(ids[i%len(ids)]).Size(1)
			}
			benchSink = float64(cells)
		})
	}
}

// BenchmarkVisitsOf times the home-shard lookup a remote query pays once:
// an entity's folded sequences coalesced back into presence periods.
func BenchmarkVisitsOf(b *testing.B) {
	db, err := SyntheticWiFiCity(WiFiCityConfig{Side: 32, Devices: 2000, Days: 14})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	names := db.Entities()
	b.ReportAllocs()
	b.ResetTimer()
	visits := 0
	for i := 0; i < b.N; i++ {
		vs, err := db.VisitsOf(names[i%len(names)])
		if err != nil {
			b.Fatal(err)
		}
		visits += len(vs)
	}
	benchSink = float64(visits)
}

// BenchmarkTopKParallel measures concurrent query throughput against one
// immutable MinSigTree: core.Tree.TopK is read-only, so goroutines share the
// index with no locking at all. Compare ns/op with BenchmarkTopK k=10 to see
// multicore scaling of the serving layer's hot path.
func BenchmarkTopKParallel(b *testing.B) {
	_, st, tree, m := benchWorld(b, 1000, 128)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := st.Get(trace.EntityID(i % 50))
			if _, _, err := tree.TopK(q, 10, m); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkDBTopKParallel is BenchmarkTopKParallel through the public DB
// facade: same search plus name resolution and the shared read lock, i.e.
// what one HTTP query costs the server before JSON encoding.
func BenchmarkDBTopKParallel(b *testing.B) {
	db, err := SyntheticCity(CityConfig{Side: 7, Entities: 1000, Days: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := db.TopK(fmt.Sprintf("entity-%d", i%50), 10); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkTopKBatch measures the batch API end to end at different pool
// widths (workers=0 selects GOMAXPROCS).
func BenchmarkTopKBatch(b *testing.B) {
	db, err := SyntheticCity(CityConfig{Side: 7, Entities: 500, Days: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	queries := db.Entities()[:64]
	for _, workers := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.TopKBatch(queries, 5, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineTopK measures the FP-bitmap baseline on the same world
// as BenchmarkTopK's k=10 case.
func BenchmarkBaselineTopK(b *testing.B) {
	ix, st, _, m := benchWorld(b, 1000, 16)
	bm, err := baseline.Build(ix, st, st.Entities(), baseline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := st.Get(trace.EntityID(i % 50))
		if _, _, err := bm.TopK(q, 10, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdate measures incremental maintenance (Figure 7.9): one
// remove+insert cycle for an existing entity.
func BenchmarkUpdate(b *testing.B) {
	for _, nh := range []int{64, 256} {
		b.Run(fmt.Sprintf("nh=%d", nh), func(b *testing.B) {
			_, st, tree, _ := benchWorld(b, 300, nh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := st.Entities()[i%300]
				if err := tree.Update(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtSort measures the Section 4.3 external sort.
func BenchmarkExtSort(b *testing.B) {
	dir := b.TempDir()
	ix, err := spindex.NewGrid(spindex.DefaultGridConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	im := mobility.DefaultIMConfig()
	im.Horizon = 5 * 24
	gen, err := mobility.NewGenerator(ix, im)
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	for e := trace.EntityID(0); e < 500; e++ {
		recs = append(recs, gen.Entity(e)...)
	}
	in := filepath.Join(dir, "in.bin")
	if err := extsort.WriteRecords(in, recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(dir, fmt.Sprintf("out-%d.bin", i))
		if _, err := extsort.SortFile(in, out, extsort.Config{PageSize: 4096, BufferPages: 8, TempDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSignatures measures the Section 5.1 design choice the
// paper argues qualitatively: partial pruned sets (one stored signature
// coordinate per node) versus full pruned sets (all nh coordinates).
// Compare ns/op (query cost) together with the reported checked/op and
// bytes-of-index metrics.
func BenchmarkAblationSignatures(b *testing.B) {
	ix, st, partial, m := benchWorld(b, 600, 64)
	fam, err := sighash.NewFamily(ix, 5*24, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.BuildWithOptions(ix, fam, st, st.Entities(), core.Options{FullSignatures: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tree *core.Tree
	}{{"partial", partial}, {"full", full}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			checked := 0
			for i := 0; i < b.N; i++ {
				q := st.Get(trace.EntityID(i % 50))
				_, stats, err := tc.tree.SignatureTopK(q, 10, m)
				if err != nil {
					b.Fatal(err)
				}
				checked += stats.Checked
			}
			b.ReportMetric(float64(checked)/float64(b.N), "checked/op")
			b.ReportMetric(float64(tc.tree.Stats().MemoryBytes), "index-bytes")
		})
	}
}

// BenchmarkStorageGet measures record reads through the buffer pool at low
// and full memory budgets (Figure 7.6's mechanism).
func BenchmarkStorageGet(b *testing.B) {
	ix, st, tree, _ := benchWorld(b, 500, 16)
	dir := b.TempDir()
	disk, err := storage.Build(filepath.Join(dir, "s.bin"), ix, st, tree.Entities(), storage.Options{BlockSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, frac := range []float64{0.1, 1.0} {
		b.Run(fmt.Sprintf("mem=%.0f%%", frac*100), func(b *testing.B) {
			disk.SetMemoryFraction(frac)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if disk.Get(trace.EntityID(i%500)) == nil {
					b.Fatal("missing entity")
				}
			}
		})
	}
}
