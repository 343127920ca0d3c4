// Package experiments regenerates every table and figure of the evaluation
// chapter (Chapter 7) of "Top-k Queries over Digital Traces" at laptop
// scale. Each Fig* function reproduces one figure: it synthesizes the
// datasets, builds the indexes, runs the queries, and returns the same
// rows/series the paper plots. cmd/experiments prints them; bench_test.go
// wraps each in a benchmark; EXPERIMENTS.md records paper-vs-measured.
//
// Scale substitution: the thesis runs 100M synthetic entities (SYN) and 30M
// devices (REAL) on a 30-core EC2 instance; this package defaults to
// thousands of entities on one core, keeping every *relative* setting (see
// DESIGN.md). The REAL dataset is proprietary and replaced by the WiFi
// generator of internal/mobility.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/analysis"
	"digitaltraces/internal/baseline"
	"digitaltraces/internal/core"
	"digitaltraces/internal/mobility"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// Scale sets the experiment sizes. The paper's absolute scale is out of
// reach for a single-core run; these presets keep its relative settings.
type Scale struct {
	Name      string
	Entities  int     // population per dataset
	Side      int     // venue grid side (venues = Side²)
	Days      int     // horizon in days
	Detection float64 // venue-hour observation probability (trace sparsity)
	Queries   int     // query entities averaged per data point
	HashSweep []int   // nh values standing in for the paper's 200..2000, after nh = 1 (no tree: one leaf)
	DefaultNH int     // nh used where the paper uses 2000
	Seed      int64
}

// Small is the test/bench preset (seconds per figure).
var Small = Scale{
	Name: "small", Entities: 600, Side: 7, Days: 7, Detection: 0.06, Queries: 6,
	HashSweep: []int{1, 16, 32, 64, 128, 256}, DefaultNH: 256, Seed: 1,
}

// Medium is the EXPERIMENTS.md preset (minutes per figure).
var Medium = Scale{
	Name: "medium", Entities: 3000, Side: 10, Days: 14, Detection: 0.05, Queries: 10,
	HashSweep: []int{1, 32, 64, 128, 256, 512}, DefaultNH: 512, Seed: 1,
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// dataset bundles a generated world.
type dataset struct {
	name    string
	ix      *spindex.Index
	store   *trace.Store
	horizon trace.Time
	// population is the generated entities' count, IDs 0..population−1; the
	// update experiment stores fresh entities past it.
	population int
}

// synDataset generates the SYN dataset (hierarchical IM model) with
// optional parameter overrides.
func synDataset(sc Scale, mutate func(*mobility.IMConfig), grid *spindex.GridConfig) (*dataset, error) {
	gcfg := spindex.GridConfig{Side: sc.Side, Levels: 4, WidthExp: 2, DensityExp: 2}
	if grid != nil {
		gcfg = *grid
	}
	ix, err := spindex.NewGrid(gcfg)
	if err != nil {
		return nil, err
	}
	im := mobility.DefaultIMConfig()
	im.Horizon = trace.Time(sc.Days * 24)
	im.Seed = sc.Seed
	im.DetectionProb = sc.Detection
	im.CompanionFrac = 0.9
	im.CompanionDeviation = 0.25
	if mutate != nil {
		mutate(&im)
	}
	gen, err := mobility.NewGenerator(ix, im)
	if err != nil {
		return nil, err
	}
	store := gen.GenerateStore(sc.Entities)
	return &dataset{name: "SYN", ix: ix, store: store, horizon: im.Horizon, population: store.Len()}, nil
}

// realDataset generates the REAL-substitute dataset (WiFi handshakes).
func realDataset(sc Scale) (*dataset, error) {
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: sc.Side, Levels: 4, WidthExp: 2, DensityExp: 2})
	if err != nil {
		return nil, err
	}
	w := mobility.DefaultWiFiConfig()
	w.Horizon = trace.Time(sc.Days * 24)
	w.Seed = sc.Seed
	w.DetectionProb = sc.Detection
	gen, err := mobility.NewWiFiGenerator(ix, w)
	if err != nil {
		return nil, err
	}
	store := gen.GenerateStore(sc.Entities)
	return &dataset{name: "REAL*", ix: ix, store: store, horizon: w.Horizon, population: store.Len()}, nil
}

// tree builds a MinSigTree of nh hash functions over the population, never
// over fresh entities an update round stored.
func (d *dataset) tree(nh int, seed uint64) (*core.Tree, error) {
	fam, err := sighash.NewFamily(d.ix, d.horizon, nh, seed)
	if err != nil {
		return nil, err
	}
	return core.Build(d.ix, fam, d.store, d.store.Entities()[:d.population])
}

func (d *dataset) paperADM(u, v float64) (adm.Measure, error) {
	return adm.NewPaperADM(d.ix.Height(), u, v)
}

// avgPE runs search — a tree's TopK, the posting-driven search that is
// served, or its SignatureTopK, Algorithm 2 and the search the Section 6.3
// model predicts — from the first sc.Queries entities and averages the
// Definition-5 PE (fraction checked beyond k) and the pruned fraction
// 1 − Checked/|E|.
func avgPE(search func(*trace.Sequences, int, adm.Measure) ([]core.Result, core.SearchStats, error), d *dataset, queries, k int, m adm.Measure) (pe, pruned float64, err error) {
	n := 0
	for e := range trace.EntityID(d.store.Len()) {
		if n >= queries {
			break
		}
		_, stats, qerr := search(d.store.Get(e), k, m)
		if qerr != nil {
			return 0, 0, qerr
		}
		pe += stats.PE
		pruned += stats.Pruned
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no queries ran")
	}
	return pe / float64(n), pruned / float64(n), nil
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// Fig71DataDistribution reproduces Figure 7.1: (a,b) the number of entities
// forming AjPIs with a query entity at each level, (c,d) the distribution
// of total AjPI duration per level, for the REAL-substitute and SYN
// datasets.
func Fig71DataDistribution(sc Scale) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		m := d.ix.Height()
		// Average over query entities: per level, count entities sharing
		// ≥1 cell, and bucket shared durations.
		levelCounts := make([]float64, m)
		maxDur := 1
		type pairDur struct{ level, dur int }
		var durs []pairDur
		for qi := 0; qi < sc.Queries && qi < d.store.Len(); qi++ {
			q := d.store.Get(trace.EntityID(qi))
			for e := range trace.EntityID(d.store.Len()) {
				if e == q.Entity {
					continue
				}
				o := trace.OverlapDurations(q, d.store.Get(e))
				for l := 1; l <= m; l++ {
					if o[l-1] > 0 {
						levelCounts[l-1]++
						durs = append(durs, pairDur{l, o[l-1]})
						if o[l-1] > maxDur {
							maxDur = o[l-1]
						}
					}
				}
			}
		}
		ta := Table{
			Title:   fmt.Sprintf("Figure 7.1(%s): entities forming AjPIs per level", d.name),
			Columns: []string{"level", "entities"},
		}
		for l := 1; l <= m; l++ {
			ta.Rows = append(ta.Rows, []string{fmt.Sprintf("%d", l), f(levelCounts[l-1] / float64(sc.Queries))})
		}
		ta.Notes = append(ta.Notes, "finer levels must have fewer AjPI partners (paper: 22M → 0.28M on REAL)")
		tables = append(tables, ta)

		// Duration buckets: 4 equal buckets over [1, maxDur] (the paper's
		// 0-100/100-200/... hours at full scale).
		tb := Table{
			Title:   fmt.Sprintf("Figure 7.1(%s): AjPI duration distribution", d.name),
			Columns: []string{"level", "bucket1", "bucket2", "bucket3", "bucket4"},
		}
		bucket := func(dur int) int {
			b := (dur - 1) * 4 / maxDur
			if b > 3 {
				b = 3
			}
			return b
		}
		counts := make([][4]float64, m)
		for _, pd := range durs {
			counts[pd.level-1][bucket(pd.dur)]++
		}
		for l := 1; l <= m; l++ {
			row := []string{fmt.Sprintf("%d", l)}
			for b := 0; b < 4; b++ {
				row = append(row, f(counts[l-1][b]/float64(sc.Queries)))
			}
			tb.Rows = append(tb.Rows, row)
		}
		tb.Notes = append(tb.Notes, fmt.Sprintf("buckets span [1,%d] hours of adjoint duration; short durations dominate", maxDur))
		tables = append(tables, tb)
	}
	return tables, nil
}

// Fig72ADMDistribution reproduces Figure 7.2: the distribution of
// association degrees under (u,v) ∈ {2,5}² on both datasets.
func Fig72ADMDistribution(sc Scale) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 7.2(%s): association degree distribution", d.name),
			Columns: []string{"u,v", "0.0-0.1", "0.1-0.2", "0.2-0.3", "0.3-0.4", "0.4-0.5", "0.5+"},
		}
		for _, uv := range [][2]float64{{2, 2}, {2, 5}, {5, 2}, {5, 5}} {
			m, err := d.paperADM(uv[0], uv[1])
			if err != nil {
				return nil, err
			}
			var buckets [6]int
			for qi := 0; qi < sc.Queries && qi < d.store.Len(); qi++ {
				q := d.store.Get(trace.EntityID(qi))
				for e := range trace.EntityID(d.store.Len()) {
					if e == q.Entity {
						continue
					}
					deg := m.Degree(q, d.store.Get(e))
					b := int(deg * 10)
					if b > 5 {
						b = 5
					}
					buckets[b]++
				}
			}
			row := []string{fmt.Sprintf("%g,%g", uv[0], uv[1])}
			for _, c := range buckets {
				row = append(row, fmt.Sprintf("%d", c/sc.Queries))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, "most entities bear low association degrees with a given entity (paper Fig 7.2)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig73PEvsHashFunctions reproduces Figure 7.3: measured vs predicted
// pruned fraction as the number of hash functions grows, on both datasets.
// (The paper plots the pruned share on the vertical axis.)
func Fig73PEvsHashFunctions(sc Scale) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		m, err := d.paperADM(2, 2)
		if err != nil {
			return nil, err
		}
		// Average base-cell count C and the empirical k-th degree feed the
		// Section 6.3 prediction.
		const k = 10
		avgC := 0
		for e := range trace.EntityID(d.store.Len()) {
			avgC += d.store.Get(e).Size(d.ix.Height())
		}
		avgC /= d.store.Len()
		t := Table{
			Title:   fmt.Sprintf("Figure 7.3(%s): pruned fraction vs number of hash functions", d.name),
			Columns: []string{"nh", "measured (signatures)", "predicted", "with cell index"},
		}
		for _, nh := range sc.HashSweep {
			tree, err := d.tree(nh, uint64(sc.Seed))
			if err != nil {
				return nil, err
			}
			_, sigPruned, err := avgPE(tree.SignatureTopK, d, sc.Queries, k, m)
			if err != nil {
				return nil, err
			}
			_, pruned, err := avgPE(tree.TopK, d, sc.Queries, k, m)
			if err != nil {
				return nil, err
			}
			// Predicted: derive nc from the measured k-th best degree of
			// the first query entity.
			q := d.store.Get(0)
			res := core.BruteForceTopK(d.store, d.store.Entities(), q, k, m)
			target := 0.0
			if len(res) > 0 {
				target = res[len(res)-1].Degree
			}
			qSizes := make([]int, d.ix.Height())
			for l := 1; l <= d.ix.Height(); l++ {
				qSizes[l-1] = q.Size(l)
			}
			nc := analysis.DegreeAt(qSizes, target, func(overlap []int) float64 {
				return m.DegreeFromCounts(overlap, qSizes, overlap)
			})
			if nc > avgC {
				nc = avgC
			}
			if nc < 1 {
				nc = 1
			}
			model := analysis.PEModel{
				RangeSize: float64(d.ix.NumBase()) * float64(d.horizon),
				C:         avgC, NH: nh, NC: nc,
			}
			pred, err := model.PrunedFraction()
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", nh), f(sigPruned), f(pred), f(pruned)})
		}
		t.Notes = append(t.Notes,
			"pruned fraction rises with nh with diminishing returns (paper Fig 7.3)",
			"prediction uses Eq 6.12-6.15 with nc from the measured k-th degree",
			"measured (signatures) = 1 − Checked/|E| of SignatureTopK, Algorithm 2 alone: the paper's quantity; with cell index = the same of TopK, the posting-driven search, which never consults a signature and so cannot move with nh",
			"nh = 1 routes every entity to one leaf Algorithm 2 reads whole: no signature pruning by construction")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig74DataCharacteristics reproduces Figure 7.4: PE (Definition 5,
// fraction checked; lower is better) for Top-1/10/50 queries while sweeping
// each hierarchical-IM parameter independently (α, β, ρ, γ, ζ, a, b, m).
func Fig74DataCharacteristics(sc Scale) ([]Table, error) {
	type sweep struct {
		name   string
		values []float64
		mut    func(*mobility.IMConfig, float64)
		grid   func(base spindex.GridConfig, v float64) spindex.GridConfig
	}
	sweeps := []sweep{
		{name: "alpha", values: []float64{0.2, 0.6, 1.0, 1.4, 1.8},
			mut: func(c *mobility.IMConfig, v float64) { c.Alpha = v }},
		{name: "beta", values: []float64{0.2, 0.4, 0.6, 0.8, 1.0},
			mut: func(c *mobility.IMConfig, v float64) { c.Beta = v }},
		{name: "rho", values: []float64{0.2, 0.4, 0.6, 0.8, 1.0},
			mut: func(c *mobility.IMConfig, v float64) { c.Rho = v }},
		{name: "gamma", values: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
			mut: func(c *mobility.IMConfig, v float64) { c.Gamma = v }},
		{name: "zeta", values: []float64{0.4, 0.8, 1.2, 1.6, 2.0},
			mut: func(c *mobility.IMConfig, v float64) { c.Zeta = v }},
		{name: "a", values: []float64{1.0, 1.25, 1.5, 1.75, 2.0},
			grid: func(g spindex.GridConfig, v float64) spindex.GridConfig { g.WidthExp = v; return g }},
		{name: "b", values: []float64{1.0, 1.25, 1.5, 1.75, 2.0},
			grid: func(g spindex.GridConfig, v float64) spindex.GridConfig { g.DensityExp = v; return g }},
		{name: "m", values: []float64{3, 4, 5},
			grid: func(g spindex.GridConfig, v float64) spindex.GridConfig { g.Levels = int(v); return g }},
	}
	var tables []Table
	for _, sw := range sweeps {
		t := Table{
			Title:   fmt.Sprintf("Figure 7.4: PE vs %s", sw.name),
			Columns: []string{sw.name, "top-1", "top-10", "top-50"},
		}
		for _, v := range sw.values {
			var mut func(*mobility.IMConfig)
			var grid *spindex.GridConfig
			if sw.mut != nil {
				mut = func(c *mobility.IMConfig) { sw.mut(c, v) }
			}
			if sw.grid != nil {
				g := sw.grid(spindex.GridConfig{Side: sc.Side, Levels: 4, WidthExp: 2, DensityExp: 2}, v)
				grid = &g
			}
			d, err := synDataset(sc, mut, grid)
			if err != nil {
				return nil, err
			}
			tree, err := d.tree(sc.DefaultNH, uint64(sc.Seed))
			if err != nil {
				return nil, err
			}
			m, err := d.paperADM(2, 2)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%g", v)}
			for _, k := range []int{1, 10, 50} {
				pe, _, err := avgPE(tree.TopK, d, sc.Queries, k, m)
				if err != nil {
					return nil, err
				}
				row = append(row, f(pe))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig75ADMParams reproduces Figure 7.5: PE under the (u,v) grid of ADM
// parameters, on both datasets.
func Fig75ADMParams(sc Scale) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		tree, err := d.tree(sc.DefaultNH, uint64(sc.Seed))
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 7.5(%s): PE vs ADM parameters", d.name),
			Columns: []string{"u", "v=2", "v=3", "v=4", "v=5"},
		}
		for u := 2.0; u <= 5; u++ {
			row := []string{fmt.Sprintf("%g", u)}
			for v := 2.0; v <= 5; v++ {
				m, err := d.paperADM(u, v)
				if err != nil {
					return nil, err
				}
				pe, _, err := avgPE(tree.TopK, d, sc.Queries, 10, m)
				if err != nil {
					return nil, err
				}
				row = append(row, f(pe))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes, "smaller u and larger v yield lower PE: signatures encode duration, not level (paper §7.5)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig76MemorySize reproduces Figure 7.6: search time for Top-1/10/50 as the
// buffer-pool budget grows from 10% to 100% of the data size, with records
// laid out in MinSigTree leaf order behind a simulated-HDD block store.
func Fig76MemorySize(sc Scale, dir string) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		tree, err := d.tree(sc.DefaultNH, uint64(sc.Seed))
		if err != nil {
			return nil, err
		}
		m, err := d.paperADM(2, 2)
		if err != nil {
			return nil, err
		}
		disk, err := storage.Build(fmt.Sprintf("%s/fig76-%s.bin", dir, d.name), d.ix, d.store, tree.Entities(),
			storage.Options{BlockSize: 4096, MissPenalty: 30 * time.Microsecond})
		if err != nil {
			return nil, err
		}
		diskTree, err := core.Build(d.ix, tree.Hasher(), disk, disk.Entities())
		if err != nil {
			disk.Close()
			return nil, err
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 7.6(%s): search time (ms) vs memory size", d.name),
			Columns: []string{"mem-frac", "top-1", "top-10", "top-50"},
		}
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
			row := []string{fmt.Sprintf("%.2f", frac)}
			for _, k := range []int{1, 10, 50} {
				disk.SetMemoryFraction(frac)
				start := time.Now()
				n := 0
				for _, e := range disk.Entities() {
					if n >= sc.Queries {
						break
					}
					if _, _, err := diskTree.TopK(disk.Get(e), k, m); err != nil {
						disk.Close()
						return nil, err
					}
					n++
				}
				row = append(row, ms(time.Since(start)/time.Duration(n)))
			}
			t.Rows = append(t.Rows, row)
		}
		disk.Close()
		t.Notes = append(t.Notes, "per-query time falls as the buffer pool grows; miss penalty 30µs/block simulates the thesis' EBS HDD")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig77ResultSize reproduces Figure 7.7: pruned fraction vs result size k
// for two signature widths and the FP-bitmap baseline, on both datasets.
func Fig77ResultSize(sc Scale) ([]Table, error) {
	var tables []Table
	nhLow := sc.HashSweep[len(sc.HashSweep)/2]
	nhHigh := sc.HashSweep[len(sc.HashSweep)-1]
	for _, mk := range []func(Scale) (*dataset, error){realDataset, func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		m, err := d.paperADM(2, 2)
		if err != nil {
			return nil, err
		}
		treeLow, err := d.tree(nhLow, uint64(sc.Seed))
		if err != nil {
			return nil, err
		}
		treeHigh, err := d.tree(nhHigh, uint64(sc.Seed))
		if err != nil {
			return nil, err
		}
		bm, err := baseline.Build(d.ix, d.store, d.store.Entities(), baseline.DefaultConfig())
		if err != nil {
			return nil, err
		}
		t := Table{
			Title: fmt.Sprintf("Figure 7.7(%s): pruned fraction vs result size k", d.name),
			Columns: []string{"k", fmt.Sprintf("minsig-%d", nhLow),
				fmt.Sprintf("minsig-%d", nhHigh), "baseline"},
		}
		for _, k := range []int{1, 10, 30, 50, 90} {
			if k >= d.store.Len() {
				break
			}
			_, prLow, err := avgPE(treeLow.TopK, d, sc.Queries, k, m)
			if err != nil {
				return nil, err
			}
			_, prHigh, err := avgPE(treeHigh.TopK, d, sc.Queries, k, m)
			if err != nil {
				return nil, err
			}
			var prBase float64
			n := 0
			for e := range trace.EntityID(d.store.Len()) {
				if n >= sc.Queries {
					break
				}
				_, stats, err := bm.TopK(d.store.Get(e), k, m)
				if err != nil {
					return nil, err
				}
				prBase += stats.Pruned
				n++
			}
			prBase /= float64(n)
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), f(prLow), f(prHigh), f(prBase)})
		}
		t.Notes = append(t.Notes, "MinSigTree outperforms the bitmap baseline by large factors (paper Fig 7.7)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig78IndexingCost reproduces Figure 7.8: (a) index construction time and
// (b) index size, as functions of the number of hash functions.
func Fig78IndexingCost(sc Scale) ([]Table, error) {
	var tables []Table
	for _, mk := range []func(Scale) (*dataset, error){func(s Scale) (*dataset, error) { return synDataset(s, nil, nil) }, realDataset} {
		d, err := mk(sc)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:   fmt.Sprintf("Figure 7.8(%s): indexing cost vs number of hash functions", d.name),
			Columns: []string{"nh", "build-ms", "index-KB"},
		}
		for _, nh := range sc.HashSweep {
			start := time.Now()
			tree, err := d.tree(nh, uint64(sc.Seed))
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			st := tree.Stats()
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nh), ms(el), fmt.Sprintf("%d", st.MemoryBytes/1024),
			})
		}
		t.Notes = append(t.Notes, "build time grows ~linearly with nh (signature hashing dominates, paper §7.8)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig79UpdateCost reproduces Figure 7.9: the time to apply a batch of
// entity updates when 100%, 70%, and 40% of the updated entities already
// exist (existing entities pay locate+remove before re-insert). Every
// updated entity, existing or new, gets a trace from the same generator, so
// the columns differ in the update path only.
func Fig79UpdateCost(sc Scale) ([]Table, error) {
	d, err := synDataset(sc, nil, nil)
	if err != nil {
		return nil, err
	}
	batch := sc.Entities / 5
	if batch < 10 {
		batch = 10
	}
	t := Table{
		Title:   "Figure 7.9 (SYN): update time (ms) vs number of hash functions",
		Columns: []string{"nh", "100%-existing", "70%-existing", "40%-existing"},
	}
	gen, err := freshEntityGen(d, sc)
	if err != nil {
		return nil, err
	}
	// Fresh entities take the IDs past the population, the same ones every
	// round: a round replaces the ones an earlier round stored and appends
	// the rest. Every round's tree indexes the population only, so a round's
	// fresh entities are inserts; the existing entities get their own traces
	// back after each round, so every round's updates replace them.
	population := trace.EntityID(d.population)
	for _, nh := range sc.HashSweep {
		row := []string{fmt.Sprintf("%d", nh)}
		for _, fracExisting := range []float64{1.0, 0.7, 0.4} {
			tree, err := d.tree(nh, uint64(sc.Seed))
			if err != nil {
				return nil, err
			}
			nExisting := int(fracExisting * float64(batch))
			// Stage the batch outside the timed section: a new trace for
			// every entity, from one generator.
			var ops []trace.EntityID
			var own []*trace.Sequences
			for i := 0; i < batch; i++ {
				e := population + trace.EntityID(i-nExisting)
				if i < nExisting {
					e = trace.EntityID(i)
					own = append(own, d.store.Get(e))
				}
				d.store.Put(gen(e))
				ops = append(ops, e)
			}
			start := time.Now()
			for _, e := range ops {
				if err := tree.Update(e); err != nil {
					return nil, err
				}
			}
			row = append(row, ms(time.Since(start)))
			for _, s := range own {
				d.store.Put(s)
			}
			// Clean up staged new entities for the next round.
			for _, e := range ops[nExisting:] {
				_ = tree.Remove(e)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"every column updates the same number of entities to new traces from one generator; an existing entity pays Remove + Insert, a new one Insert only (paper Fig 7.9: inserting new entities is cheaper than modifying existing ones)")
	return []Table{t}, nil
}

// freshEntityGen returns a deterministic generator of new entity sequences
// for update experiments.
func freshEntityGen(d *dataset, sc Scale) (func(trace.EntityID) *trace.Sequences, error) {
	im := mobility.DefaultIMConfig()
	im.Horizon = d.horizon
	im.Seed = sc.Seed + 999
	gen, err := mobility.NewGenerator(d.ix, im)
	if err != nil {
		return nil, err
	}
	return func(e trace.EntityID) *trace.Sequences {
		return trace.NewSequences(d.ix, e, gen.Entity(e))
	}, nil
}

// All runs every figure at the given scale, returning tables in paper
// order. dir is scratch space for the storage experiment.
func All(sc Scale, dir string) ([]Table, error) {
	type gen func() ([]Table, error)
	gens := []gen{
		func() ([]Table, error) { return Fig71DataDistribution(sc) },
		func() ([]Table, error) { return Fig72ADMDistribution(sc) },
		func() ([]Table, error) { return Fig73PEvsHashFunctions(sc) },
		func() ([]Table, error) { return Fig74DataCharacteristics(sc) },
		func() ([]Table, error) { return Fig75ADMParams(sc) },
		func() ([]Table, error) { return Fig76MemorySize(sc, dir) },
		func() ([]Table, error) { return Fig77ResultSize(sc) },
		func() ([]Table, error) { return Fig78IndexingCost(sc) },
		func() ([]Table, error) { return Fig79UpdateCost(sc) },
	}
	var out []Table
	for _, g := range gens {
		ts, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// ByName resolves a figure id ("7.1".."7.9") to its generator.
func ByName(id string, sc Scale, dir string) ([]Table, error) {
	switch id {
	case "7.1":
		return Fig71DataDistribution(sc)
	case "7.2":
		return Fig72ADMDistribution(sc)
	case "7.3":
		return Fig73PEvsHashFunctions(sc)
	case "7.4":
		return Fig74DataCharacteristics(sc)
	case "7.5":
		return Fig75ADMParams(sc)
	case "7.6":
		return Fig76MemorySize(sc, dir)
	case "7.7":
		return Fig77ResultSize(sc)
	case "7.8":
		return Fig78IndexingCost(sc)
	case "7.9":
		return Fig79UpdateCost(sc)
	case "all":
		return All(sc, dir)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (want 7.1..7.9 or all)", id)
	}
}

// Names lists the available figure ids in order.
func Names() []string {
	ids := []string{"7.1", "7.2", "7.3", "7.4", "7.5", "7.6", "7.7", "7.8", "7.9"}
	sort.Strings(ids)
	return ids
}
