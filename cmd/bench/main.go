// Command bench runs the synthetic-city serving benchmark suite — index
// build time, query latency (p50/p99), query throughput and index size — on
// a single DB and on shard clusters of configurable sizes, and writes the
// results to BENCH_<label>.json. The JSON is the machine-readable
// performance trajectory of the repository: run it with the same label
// schema before and after a change (or in CI) and diff the files.
//
//	bench -label sharding -entities 2000 -side 16 -days 7 -shards 1,2,4,8
//
// produces BENCH_sharding.json with one run per engine configuration. The
// single-DB run is the baseline the N-shard parallel build speedup is read
// against.
//
// The -scenario restart mode measures the restart path: the time to a
// query-ready index, once cold (BuildIndex over a freshly re-ingested
// population: sequence staging + sealing the postings) and once by opening a
// SaveIndex image (OpenIndex: no re-ingested visit log at all; it publishes
// after validating the header and decoding the entity table, level sizes and
// cell index, faulting sequence pages in lazily), across population sizes,
// verifying the two serve identical answers:
//
//	bench -label restart -scenario restart -restart-sizes 1000,4000,16000
//
// writes BENCH_restart.json. The headline is the per-size speedup — what a
// restarted server saves before its first query; the open's time should sit
// well under the cold build and grow sub-linearly with the population.
//
// The -scenario trace mode measures the cost of leaving per-query tracing
// on: sequential latency over the same query sequence with the trace ring
// off and on, in alternating rounds so thermal and GC drift hits both modes
// equally, on the single DB and an N-shard cluster:
//
//	bench -label trace -scenario trace -entities 2000 -trace-shards 4
//
// writes BENCH_trace.json. The headline is the traced rows' p99 overhead
// percentage — the number that justifies running production with -trace N.
// Pass -assert-trace-overhead 5 to exit nonzero when overhead exceeds 5%
// (the CI guardrail).
//
// The -scenario ingest mode measures the out-of-core bulk path: a shuffled
// (arrival-order) record file several times larger than the external sort's
// buffer budget is ingested once in-memory (LoadRecordFile + BuildIndex)
// and once via BulkLoadRecordFile, the two verified to answer sampled top-k
// queries bit-identically, and the bulk row's measured page I/O checked
// against the paper's 2N·(1+⌈log_B⌈N/B⌉⌉) bound (exit nonzero beyond 2×):
//
//	bench -label ingest -scenario ingest -entities 2000 -ingest-buffers 8
//
// writes BENCH_ingest.json.
//
// The -scenario remote mode measures the network-distributed cluster: the
// same city partitioned across an in-process N-shard cluster and an N-shard
// cluster of loopback HTTP shard servers (shard/remote, the engine behind
// serve -shards-remote), answers cross-checked bit-for-bit. The remote row
// reports RPCs, pulls and pull rounds per query — the RTT-amortization
// evidence: one round trip per gather round, not per candidate or per pull.
// Pass -assert-remote-p99x 2.5 to exit nonzero when the loopback transport
// costs more than 2.5× the in-process p99 (the CI guardrail):
//
//	bench -label remote -scenario remote -entities 2000 -remote-shards 8
//
// writes BENCH_remote.json.
//
// The -scenario rebalance mode measures live skew-aware slot migration: a
// cluster bootstrapped with a deliberately hot shard (one shard owns twice
// its fair share of the 256 routing slots) answers the same query sequence
// quiescent, during Rebalance(0), and after, with every in-migration answer
// cross-checked bit-for-bit against a never-rebalanced twin. Pass
// -assert-rebalance-p99x 1.5 to exit nonzero when the migration-window p99
// exceeds 1.5× the quiescent p99 (the CI guardrail); the scenario itself
// fails if the rebalance does not reduce the owned-entity skew:
//
//	bench -label rebalance -scenario rebalance -entities 2000 -rebalance-shards 8
//
// writes BENCH_rebalance.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"digitaltraces"
	"digitaltraces/internal/extsort"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
	"digitaltraces/shard"
)

// Run is one engine configuration's measurements. BuildSeconds is measured
// wall clock on this machine; BuildCriticalPathSeconds is the slowest
// shard's build — the wall clock a machine with ≥ Shards cores sees, and the
// number to read the parallel-build speedup from when the benchmarking host
// has fewer cores than shards (for the single DB the two coincide).
type Run struct {
	Engine                   string  `json:"engine"` // "db" or "cluster"
	Shards                   int     `json:"shards"`
	BuildSeconds             float64 `json:"build_seconds"`
	BuildCriticalPathSeconds float64 `json:"build_critical_path_seconds"`
	IndexBytes               int     `json:"index_bytes"`
	Queries                  int     `json:"queries"`
	OpsPerSec                float64 `json:"ops_per_sec"` // parallel batch throughput
	P50Micros                float64 `json:"p50_us"`      // sequential single-query latency
	P99Micros                float64 `json:"p99_us"`
}

// RestartRun is one (mode, population) cell of the -scenario restart
// matrix: the wall-clock cost of reaching a query-ready published index.
// Mode "cold" is BuildIndex over a freshly ingested population; mode "mmap"
// is OpenIndex over a SaveIndex image (SnapshotBytes big) — no re-ingested
// log at all, sequence pages fault in lazily. SpeedupVsCold is cold/this at
// the same population (mmap rows).
type RestartRun struct {
	Mode          string  `json:"mode"` // "cold" or "mmap"
	Entities      int     `json:"entities"`
	Seconds       float64 `json:"seconds"` // time to a query-ready snapshot
	SnapshotBytes int64   `json:"snapshot_bytes,omitempty"`
	SpeedupVsCold float64 `json:"speedup_vs_cold,omitempty"`
}

// IngestRun is one mode of the -scenario ingest comparison: building a
// query-ready DB from the same shuffled record file. Mode "memory" is
// LoadRecordFile + BuildIndex (the whole log resident); mode "bulk" is
// BulkLoadRecordFile (resident set bounded by BudgetBytes ≈ BufferPages ×
// page size). On bulk rows PageIO is the external sort's measured page
// transfers and TheoreticalPageIO the paper's 2N·(1+⌈log_B⌈N/B⌉⌉) bound.
type IngestRun struct {
	Mode              string  `json:"mode"` // "memory" or "bulk"
	Records           int     `json:"records"`
	FileBytes         int64   `json:"file_bytes"`
	BufferPages       int     `json:"buffer_pages,omitempty"`
	BudgetBytes       int64   `json:"budget_bytes,omitempty"`
	Seconds           float64 `json:"seconds"` // time to a query-ready index
	SortSeconds       float64 `json:"sort_seconds,omitempty"`
	BuildSeconds      float64 `json:"build_seconds,omitempty"`
	PageIO            int     `json:"page_io,omitempty"`
	TheoreticalPageIO int     `json:"theoretical_page_io,omitempty"`
}

// TraceRun is one (engine, traced) cell of the -scenario trace matrix:
// sequential query latency over one fixed query sequence with the trace
// ring off or on. Quantiles are the median of per-round quantiles across
// the alternating rounds (see traceScenario). On traced rows
// P99OverheadPct is (p99 traced − p99 untraced) / p99 untraced × 100
// against the same engine's untraced twin — the acceptance budget is < 5%.
type TraceRun struct {
	Engine         string  `json:"engine"` // "db" or "cluster"
	Shards         int     `json:"shards"`
	Traced         bool    `json:"traced"`
	RingSize       int     `json:"ring_size,omitempty"`
	Queries        int     `json:"queries"` // total samples across rounds
	OpsPerSec      float64 `json:"ops_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P99Micros      float64 `json:"p99_us"`
	P99OverheadPct float64 `json:"p99_overhead_pct,omitempty"`
}

// Report is the BENCH_<label>.json schema.
type Report struct {
	Label       string `json:"label"`
	GeneratedAt string `json:"generated_at"`
	Config      struct {
		Entities   int    `json:"entities"`
		Side       int    `json:"side"`
		Levels     int    `json:"levels"`
		Days       int    `json:"days"`
		Seed       int64  `json:"seed"`
		K          int    `json:"k"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"config"`
	Runs          []Run          `json:"runs,omitempty"`
	RestartRuns   []RestartRun   `json:"restart_runs,omitempty"`
	IngestRuns    []IngestRun    `json:"ingest_runs,omitempty"`
	TraceRuns     []TraceRun     `json:"trace_runs,omitempty"`
	RemoteRuns    []RemoteRun    `json:"remote_runs,omitempty"`
	RebalanceRuns []RebalanceRun `json:"rebalance_runs,omitempty"`
}

// scenarios lists the -scenario modes, in the order the package comment
// describes them.
var scenarios = []string{"serve", "restart", "trace", "ingest", "remote", "rebalance"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		label    = flag.String("label", "dev", "report label; output file is BENCH_<label>.json")
		out      = flag.String("out", ".", "output directory")
		entities = flag.Int("entities", 2000, "synthetic population size")
		side     = flag.Int("side", 16, "venue grid side")
		levels   = flag.Int("levels", 4, "sp-index height")
		days     = flag.Int("days", 7, "horizon in days")
		seed     = flag.Int64("seed", 1, "synthetic generator seed")
		k        = flag.Int("k", 10, "top-k result size")
		queries  = flag.Int("queries", 200, "queries per latency/throughput sample")
		shardSet = flag.String("shards", "1,2,4,8", "comma-separated cluster sizes to benchmark alongside the single DB")
		scenario = flag.String("scenario", "serve", "one of "+strings.Join(scenarios, ", ")+" (see the package comment for what each measures)")
		rstSizes = flag.String("restart-sizes", "1000,4000,16000", "restart scenario: comma-separated population sizes")
		ingVis   = flag.Int("ingest-visits", 40, "ingest scenario: visits per entity (records = entities × this)")
		ingBufs  = flag.Int("ingest-buffers", 8, "ingest scenario: external-sort buffer pages (resident budget = pages × page size)")
		ingPage  = flag.Int("ingest-page", 4096, "ingest scenario: external-sort page size in bytes")
		trcRing  = flag.Int("trace-ring", 512, "trace scenario: trace ring capacity for the traced rows")
		trcRds   = flag.Int("trace-rounds", 6, "trace scenario: alternating off/on measurement rounds")
		trcSh    = flag.Int("trace-shards", 4, "trace scenario: cluster size to measure alongside the single DB")
		trcMax   = flag.Float64("assert-trace-overhead", 0, "trace scenario: exit nonzero if any traced row's p99 overhead exceeds this percentage (0 = no assertion)")
		remSh    = flag.Int("remote-shards", 8, "remote scenario: cluster size for the in-process vs loopback-remote comparison")
		remMax   = flag.Float64("assert-remote-p99x", 0, "remote scenario: exit nonzero if the loopback-remote p99 exceeds this multiple of the in-process p99 (0 = no assertion)")
		rebalSh  = flag.Int("rebalance-shards", 8, "rebalance scenario: cluster size for the engineered-skew live migration")
		rebalMax = flag.Float64("assert-rebalance-p99x", 0, "rebalance scenario: exit nonzero if the migration-window p99 exceeds this multiple of the quiescent p99 (0 = no assertion)")
	)
	flag.Parse()

	sizes, err := parseSizes(*shardSet)
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Contains(scenarios, *scenario) {
		log.Fatalf("unknown -scenario %q (want one of %s)", *scenario, strings.Join(scenarios, ", "))
	}
	cfg := digitaltraces.CityConfig{Side: *side, Levels: *levels, Entities: *entities, Days: *days, Seed: *seed}

	var report Report
	report.Label = *label
	report.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	report.Config.Entities = *entities
	report.Config.Side = *side
	report.Config.Levels = *levels
	report.Config.Days = *days
	report.Config.Seed = *seed
	report.Config.K = *k
	report.Config.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.Config.GoVersion = runtime.Version()

	if *scenario == "restart" {
		popSizes, err := parseSizes(*rstSizes)
		if err != nil {
			log.Fatal(err)
		}
		report.RestartRuns, err = restartScenario(cfg, popSizes, *k)
		if err != nil {
			log.Fatal(err)
		}
		writeReport(report, *out, *label)
		return
	}

	if *scenario == "ingest" {
		report.IngestRuns, err = ingestScenario(*entities, *ingVis, *side, *levels, *days, *ingBufs, *ingPage, *k, *seed)
		if err != nil {
			log.Fatal(err)
		}
		writeReport(report, *out, *label)
		return
	}

	if *scenario == "remote" {
		report.RemoteRuns, err = remoteScenario(cfg, *side, *levels, *k, *queries, *remSh, *seed)
		if err != nil {
			log.Fatal(err)
		}
		writeReport(report, *out, *label)
		if *remMax > 0 {
			for _, run := range report.RemoteRuns {
				if run.P99VsInProcess > *remMax {
					log.Fatalf("remote p99 is %.2fx the in-process p99, over the %.2fx budget", run.P99VsInProcess, *remMax)
				}
			}
		}
		return
	}

	if *scenario == "rebalance" {
		report.RebalanceRuns, err = rebalanceScenario(cfg, *side, *levels, *k, *queries, *rebalSh)
		if err != nil {
			log.Fatal(err)
		}
		writeReport(report, *out, *label)
		if *rebalMax > 0 {
			for _, run := range report.RebalanceRuns {
				if run.Phase == "migration" && run.P99VsQuiescent > *rebalMax {
					log.Fatalf("rebalance scenario: migration-window p99 is %.2fx the quiescent p99, over the %.2fx budget", run.P99VsQuiescent, *rebalMax)
				}
			}
		}
		return
	}

	if *scenario == "trace" {
		report.TraceRuns, err = traceScenario(cfg, *side, *levels, *k, *queries, *trcSh, *trcRing, *trcRds)
		if err != nil {
			log.Fatal(err)
		}
		writeReport(report, *out, *label)
		if *trcMax > 0 {
			for _, run := range report.TraceRuns {
				if run.Traced && run.P99OverheadPct > *trcMax {
					log.Fatalf("trace scenario: %s/%d traced p99 overhead %.1f%% exceeds the %.1f%% budget",
						run.Engine, run.Shards, run.P99OverheadPct, *trcMax)
				}
			}
		}
		return
	}

	log.Printf("generating city: %d entities, %d² venues, %d days", *entities, *side, *days)
	src, err := digitaltraces.SyntheticCity(cfg)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, *queries)
	for i := 0; i < *queries; i++ {
		names = append(names, fmt.Sprintf("entity-%d", (i*37)%*entities))
	}

	// Baseline: the single DB. Build timing measures BuildIndex only (the
	// city is already generated and, for clusters below, already routed).
	run, err := measure("db", 1, src, names, *k)
	if err != nil {
		log.Fatal(err)
	}
	report.Runs = append(report.Runs, run)
	baseline := run.BuildSeconds

	for _, n := range sizes {
		cluster, err := shard.Partition(src, shard.Config{
			Shards: n,
			NewShard: func(i int) (*digitaltraces.DB, error) {
				return digitaltraces.NewGridDB(*side, *levels)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		run, err := measure("cluster", n, cluster, names, *k)
		if err != nil {
			log.Fatal(err)
		}
		if baseline > 0 {
			log.Printf("  build speedup vs single DB: %.2fx wall, %.2fx critical-path (≥%d cores)",
				baseline/run.BuildSeconds, baseline/run.BuildCriticalPathSeconds, n)
		}
		report.Runs = append(report.Runs, run)
	}

	writeReport(report, *out, *label)
}

func writeReport(report Report, out, label string) {
	path := filepath.Join(out, "BENCH_"+label+".json")
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// restartScenario measures, per population size, the wall clock to a
// query-ready published index: cold (BuildIndex over a freshly generated
// DB) versus OpenIndex of a SaveIndex image of an identically generated DB.
// The generators are deterministic, so the scenario verifies the two modes
// answer sample queries identically before reporting. Each timed mode runs
// with only its own DB live (the previous mode's is released and the heap
// compacted first) — a real restart has one process image, not two
// populations sharing a garbage collector.
func restartScenario(cfg digitaltraces.CityConfig, popSizes []int, k int) ([]RestartRun, error) {
	var runs []RestartRun
	for _, pop := range popSizes {
		ccfg := cfg
		ccfg.Entities = pop
		fresh := func() (*digitaltraces.DB, error) { return digitaltraces.SyntheticCity(ccfg) }
		queries := make([]string, 5)
		for q := range queries {
			queries[q] = fmt.Sprintf("entity-%d", (q*97)%pop)
		}

		// The image a restart would open: built and saved once per size.
		src, err := fresh()
		if err != nil {
			return nil, fmt.Errorf("restart scenario: %w", err)
		}
		mapFile, err := os.CreateTemp("", "bench-restart-*.map")
		if err != nil {
			return nil, fmt.Errorf("restart scenario: %w", err)
		}
		mapPath := mapFile.Name()
		defer os.Remove(mapPath)
		mapBytes, err := src.SaveIndex(mapFile)
		if err != nil {
			return nil, fmt.Errorf("restart scenario: saving %d-entity index: %w", pop, err)
		}
		if err := mapFile.Close(); err != nil {
			return nil, fmt.Errorf("restart scenario: %w", err)
		}
		src = nil

		cold, err := fresh()
		if err != nil {
			return nil, fmt.Errorf("restart scenario: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		if err := cold.BuildIndex(); err != nil {
			return nil, fmt.Errorf("restart scenario: cold build (%d entities): %w", pop, err)
		}
		coldSecs := time.Since(t0).Seconds()
		runs = append(runs, RestartRun{Mode: "cold", Entities: pop, Seconds: coldSecs})
		log.Printf("restart scenario |E|=%d: cold build %.3fs", pop, coldSecs)
		// Record the reference answers, then release the cold DB so the open
		// does not pay GC rent on a dead population.
		coldAnswers := make([][]digitaltraces.Match, len(queries))
		for q, name := range queries {
			if coldAnswers[q], _, err = cold.TopK(name, k); err != nil {
				return nil, fmt.Errorf("restart scenario: cold TopK(%s): %w", name, err)
			}
		}
		cold = nil

		// No re-ingested log to stand up at all — an empty grid DB publishes
		// straight off the file mapping, so the measured time is the whole
		// restart, not just the index phase.
		mapped, err := digitaltraces.NewGridDB(ccfg.Side, ccfg.Levels)
		if err != nil {
			return nil, fmt.Errorf("restart scenario: %w", err)
		}
		runtime.GC()
		t0 = time.Now()
		if err := mapped.OpenIndex(mapPath); err != nil {
			return nil, fmt.Errorf("restart scenario: OpenIndex (%d entities): %w", pop, err)
		}
		mmapSecs := time.Since(t0).Seconds()
		mrun := RestartRun{Mode: "mmap", Entities: pop, Seconds: mmapSecs, SnapshotBytes: mapBytes}
		if mmapSecs > 0 {
			mrun.SpeedupVsCold = coldSecs / mmapSecs
		}
		log.Printf("restart scenario |E|=%d: OpenIndex %.4fs (%.1f KiB image, %.1fx vs cold)",
			pop, mmapSecs, float64(mapBytes)/1024, mrun.SpeedupVsCold)
		runs = append(runs, mrun)

		// The whole point is identical answers; a divergence is a bug, not a
		// data point.
		for q, name := range queries {
			got, _, err := mapped.TopK(name, k)
			if err != nil {
				return nil, fmt.Errorf("restart scenario: mapped TopK(%s): %w", name, err)
			}
			if !reflect.DeepEqual(got, coldAnswers[q]) {
				return nil, fmt.Errorf("restart scenario: mapped answers diverge for %s: %v vs %v", name, got, coldAnswers[q])
			}
		}
		if err := mapped.Close(); err != nil {
			return nil, fmt.Errorf("restart scenario: closing mapped DB: %w", err)
		}
	}
	return runs, nil
}

// ingestScenario generates one shuffled (arrival-order) record file whose
// size exceeds the external sort's buffer budget severalfold, then builds a
// query-ready DB from it twice: in-memory (LoadRecordFile + BuildIndex) and
// out-of-core (BulkLoadRecordFile under the budget). The two must answer
// sampled top-k queries bit-identically, and the bulk sort's measured page
// I/O must stay within 2× the paper's 2N·(1+⌈log_B⌈N/B⌉⌉) bound — either
// violation is an error, not a data point.
func ingestScenario(entities, visitsPer, side, levels, days, buffers, page, k int, seed int64) ([]IngestRun, error) {
	if entities < 1 || visitsPer < 1 || buffers < 1 || page < extsort.RecordSize {
		return nil, fmt.Errorf("ingest scenario: need -entities, -ingest-visits, -ingest-buffers ≥ 1 and -ingest-page ≥ %d", extsort.RecordSize)
	}
	horizon := int32(days * 24)
	venues := side * side
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, entities*visitsPer)
	for e := 0; e < entities; e++ {
		for v := 0; v < visitsPer; v++ {
			start := rng.Int31n(horizon - 1)
			end := start + 1 + rng.Int31n(min(4, horizon-start-1))
			recs = append(recs, trace.Record{
				Entity: trace.EntityID(e),
				Base:   spindex.BaseID(rng.Intn(venues)),
				Start:  trace.Time(start),
				End:    trace.Time(end),
			})
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	f, err := os.CreateTemp("", "bench-ingest-*.bin")
	if err != nil {
		return nil, fmt.Errorf("ingest scenario: %w", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if err := extsort.WriteRecords(path, recs); err != nil {
		return nil, fmt.Errorf("ingest scenario: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("ingest scenario: %w", err)
	}
	fileBytes := info.Size()
	budget := int64(buffers) * int64(page)
	log.Printf("ingest scenario: %d records (%.1f KiB) over %d entities; sort budget %d×%d = %.1f KiB (file/budget %.1fx)",
		len(recs), float64(fileBytes)/1024, entities, buffers, page, float64(budget)/1024, float64(fileBytes)/float64(budget))
	if fileBytes < 4*budget {
		log.Printf("ingest scenario: warning: file is under 4× the buffer budget; raise -entities or lower -ingest-buffers for a meaningful out-of-core run")
	}

	queries := make([]string, 20)
	for q := range queries {
		queries[q] = fmt.Sprintf("entity-%d", (q*37)%entities)
	}

	runtime.GC()
	t0 := time.Now()
	memDB, err := digitaltraces.LoadRecordFile(path, side, levels)
	if err != nil {
		return nil, fmt.Errorf("ingest scenario: LoadRecordFile: %w", err)
	}
	if err := memDB.BuildIndex(); err != nil {
		return nil, fmt.Errorf("ingest scenario: in-memory build: %w", err)
	}
	memSecs := time.Since(t0).Seconds()
	runs := []IngestRun{{Mode: "memory", Records: len(recs), FileBytes: fileBytes, Seconds: memSecs}}
	log.Printf("ingest scenario memory: query-ready in %.3fs", memSecs)
	reference := make([][]digitaltraces.Match, len(queries))
	for q, name := range queries {
		if reference[q], _, err = memDB.TopK(name, k); err != nil {
			return nil, fmt.Errorf("ingest scenario: memory TopK(%s): %w", name, err)
		}
	}
	memDB = nil

	runtime.GC()
	t0 = time.Now()
	bulkDB, stats, err := digitaltraces.BulkLoadRecordFile(path, side, levels,
		digitaltraces.BulkConfig{PageSize: page, BufferPages: buffers})
	if err != nil {
		return nil, fmt.Errorf("ingest scenario: BulkLoadRecordFile: %w", err)
	}
	bulkSecs := time.Since(t0).Seconds()
	brun := IngestRun{
		Mode: "bulk", Records: stats.Records, FileBytes: fileBytes,
		BufferPages: buffers, BudgetBytes: budget, Seconds: bulkSecs,
		SortSeconds: stats.SortTime.Seconds(), BuildSeconds: stats.BuildTime.Seconds(),
		PageIO: stats.Sort.PageIO(), TheoreticalPageIO: stats.TheoreticalPageIO,
	}
	runs = append(runs, brun)
	log.Printf("ingest scenario bulk: query-ready in %.3fs (sort %.3fs, build %.3fs); %d page I/Os vs formula %d (%d runs, %d merge passes)",
		bulkSecs, brun.SortSeconds, brun.BuildSeconds, brun.PageIO, brun.TheoreticalPageIO, stats.Sort.Runs, stats.Sort.MergePasses)
	if brun.TheoreticalPageIO > 0 && brun.PageIO > 2*brun.TheoreticalPageIO {
		return nil, fmt.Errorf("ingest scenario: bulk sort did %d page I/Os, over 2× the %d-page formula bound", brun.PageIO, brun.TheoreticalPageIO)
	}

	for q, name := range queries {
		got, _, err := bulkDB.TopK(name, k)
		if err != nil {
			return nil, fmt.Errorf("ingest scenario: bulk TopK(%s): %w", name, err)
		}
		if !reflect.DeepEqual(got, reference[q]) {
			return nil, fmt.Errorf("ingest scenario: bulk answers diverge for %s: %v vs %v", name, got, reference[q])
		}
	}
	return runs, nil
}

// traceScenario measures the latency cost of leaving the trace ring on.
// Per engine kind, two engines serve identical deterministically regenerated
// data — one untraced, one with a ring — and the same query sequence runs
// against them in alternating rounds (off, on, off, on, …) so slow drift
// (thermals, background GC) lands on both modes equally. Quantiles are
// computed per round and the median across rounds is reported: a single
// descheduled round then shifts one sample of the estimator instead of
// owning the pooled tail, which matters because the effect being measured
// (one ring write per query) is orders of magnitude below scheduler noise.
func traceScenario(cfg digitaltraces.CityConfig, side, levels, k, queries, shards, ring, rounds int) ([]TraceRun, error) {
	if queries < 1 || shards < 1 || ring < 1 || rounds < 1 {
		return nil, fmt.Errorf("trace scenario: need -queries, -trace-shards, -trace-ring and -trace-rounds ≥ 1")
	}
	names := make([]string, queries)
	for i := range names {
		names[i] = fmt.Sprintf("entity-%d", (i*37)%cfg.Entities)
	}

	newEngine := func(kind string, traced bool) (digitaltraces.Engine, error) {
		var dbOpts []digitaltraces.Option
		if traced && kind == "db" {
			dbOpts = append(dbOpts, digitaltraces.WithTracing(ring))
		}
		src, err := digitaltraces.SyntheticCity(cfg, dbOpts...)
		if err != nil {
			return nil, err
		}
		if kind == "db" {
			return src, nil
		}
		traceSize := 0
		if traced {
			traceSize = ring
		}
		return shard.Partition(src, shard.Config{
			Shards:    shards,
			TraceSize: traceSize,
			NewShard: func(int) (*digitaltraces.DB, error) {
				return digitaltraces.NewGridDB(side, levels)
			},
		})
	}

	var runs []TraceRun
	for _, kind := range []string{"db", "cluster"} {
		engs := map[bool]digitaltraces.Engine{}
		for _, traced := range []bool{false, true} {
			eng, err := newEngine(kind, traced)
			if err != nil {
				return nil, fmt.Errorf("trace scenario (%s traced=%v): %w", kind, traced, err)
			}
			if err := eng.BuildIndex(); err != nil {
				return nil, fmt.Errorf("trace scenario (%s traced=%v): build: %w", kind, traced, err)
			}
			engs[traced] = eng
		}
		p50s := map[bool][]float64{}
		p99s := map[bool][]float64{}
		elapsed := map[bool]time.Duration{}
		total := map[bool]int{}
		// One untimed warmup pass per mode, then the alternating rounds.
		for _, traced := range []bool{false, true} {
			for _, name := range names {
				if _, _, err := engs[traced].TopK(name, k); err != nil {
					return nil, fmt.Errorf("trace scenario (%s traced=%v): TopK(%s): %w", kind, traced, name, err)
				}
			}
		}
		for r := 0; r < rounds; r++ {
			for _, traced := range []bool{false, true} {
				eng := engs[traced]
				lat := make([]time.Duration, 0, len(names))
				runtime.GC()
				roundStart := time.Now()
				for _, name := range names {
					qStart := time.Now()
					if _, _, err := eng.TopK(name, k); err != nil {
						return nil, fmt.Errorf("trace scenario (%s traced=%v): TopK(%s): %w", kind, traced, name, err)
					}
					lat = append(lat, time.Since(qStart))
				}
				elapsed[traced] += time.Since(roundStart)
				total[traced] += len(lat)
				slices.Sort(lat)
				p50s[traced] = append(p50s[traced], float64(percentile(lat, 50).Microseconds()))
				p99s[traced] = append(p99s[traced], float64(percentile(lat, 99).Microseconds()))
			}
		}
		var basep99 float64
		for _, traced := range []bool{false, true} {
			run := TraceRun{Engine: kind, Shards: 1, Traced: traced, Queries: total[traced]}
			if kind == "cluster" {
				run.Shards = shards
			}
			if traced {
				run.RingSize = ring
			}
			run.OpsPerSec = float64(total[traced]) / elapsed[traced].Seconds()
			run.P50Micros = medianOf(p50s[traced])
			run.P99Micros = medianOf(p99s[traced])
			if !traced {
				basep99 = run.P99Micros
			} else if basep99 > 0 {
				run.P99OverheadPct = 100 * (run.P99Micros - basep99) / basep99
			}
			log.Printf("trace scenario %s shards=%d traced=%v: %.0f q/s, p50 %.0fµs, p99 %.0fµs",
				kind, run.Shards, traced, run.OpsPerSec, run.P50Micros, run.P99Micros)
			if traced {
				log.Printf("  p99 overhead vs untraced %s: %+.1f%%", kind, run.P99OverheadPct)
			}
			runs = append(runs, run)
		}
	}
	return runs, nil
}

// measure times an engine's index build, then samples sequential query
// latency and parallel batch throughput over the same query set.
func measure(kind string, shards int, eng digitaltraces.Engine, names []string, k int) (Run, error) {
	run := Run{Engine: kind, Shards: shards, Queries: len(names)}

	start := time.Now()
	if err := eng.BuildIndex(); err != nil {
		return run, fmt.Errorf("%s/%d: build: %w", kind, shards, err)
	}
	run.BuildSeconds = time.Since(start).Seconds()
	ix := eng.IndexStats()
	run.IndexBytes = ix.MemoryBytes
	run.BuildCriticalPathSeconds = ix.BuildTime.Seconds()

	lat := make([]time.Duration, 0, len(names))
	for _, name := range names {
		qStart := time.Now()
		if _, _, err := eng.TopK(name, k); err != nil {
			return run, fmt.Errorf("%s/%d: TopK(%s): %w", kind, shards, name, err)
		}
		lat = append(lat, time.Since(qStart))
	}
	slices.Sort(lat)
	run.P50Micros = float64(percentile(lat, 50).Microseconds())
	run.P99Micros = float64(percentile(lat, 99).Microseconds())

	start = time.Now()
	if _, _, err := eng.TopKBatch(names, k, 0); err != nil {
		return run, fmt.Errorf("%s/%d: batch: %w", kind, shards, err)
	}
	run.OpsPerSec = float64(len(names)) / time.Since(start).Seconds()

	log.Printf("%s shards=%d: build %.3fs, index %.1f KiB, %.0f q/s, p50 %.0fµs, p99 %.0fµs",
		kind, shards, run.BuildSeconds, float64(run.IndexBytes)/1024, run.OpsPerSec, run.P50Micros, run.P99Micros)
	return run, nil
}

// medianOf returns the median of an unsorted float sample (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return s[len(s)/2]
}

// percentile reads the p-th percentile from an ascending-sorted sample.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bench: bad shard count %q in -shards", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: -shards names no cluster sizes")
	}
	return out, nil
}
