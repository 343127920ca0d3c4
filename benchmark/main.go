// Command dtbench is the repository's benchmark: it boots the real serving
// stack in-process (server.New over an engine, behind a loopback listener),
// drives POST /topk and POST /visits with a closed-loop keep-alive client,
// checks sampled answers against a scan, and prints end-to-end metrics
// (-trace 0) or per-layer metrics (-trace 1). README.md documents the
// workloads, the metrics and the rules that keep the numbers repeatable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names, units and directions (checked by TestManifestMatches).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"topk_p50_ms", "ms"},
	{"topk_p90_ms", "ms"},
	{"topk_qps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
	{"index_mb", "MB"},
	{"setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	out      string
	repeat   int
	check    bool
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("dtbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (with -repeat: empty = all)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request sequence (the population is fixed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase of an end-to-end run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	fs.StringVar(&cfg.size, "size", "full", "population preset: full, or smoke (tiny; numbers not comparable)")
	fs.StringVar(&cfg.out, "out", "benchmark/out", "directory the traced run writes its span file to")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run this many end-to-end runs per workload (seeds seed, seed+1, …) and print each metric's spread")
	fs.BoolVar(&cfg.check, "check", false, "with -repeat: exit non-zero if a spread exceeds the metric's bound in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace != 0
	if _, ok := sizes[cfg.size]; !ok {
		return cfg, fmt.Errorf("unknown -size %q", cfg.size)
	}
	if _, ok := findWorkload(cfg.workload); !ok && (cfg.repeat == 0 || cfg.workload != "") {
		return cfg, fmt.Errorf("unknown -workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	return cfg, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(2)
	}
	// The load generator shares the process with the server, so the whole
	// benchmark is pinned to at most two threads of execution: one client
	// (plus the writer on the ingest workload) against the serving stack.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if cfg.repeat > 0 {
		os.Exit(repeatMain(cfg, os.Stdout))
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload once and returns its result; the human-readable
// report (environment header, every metric with unit and sample count) goes
// to log.
func run(cfg config, log io.Writer) (result, error) {
	sz := sizes[cfg.size]
	w, _ := findWorkload(cfg.workload)
	w = w.scaled(sz)
	load := header(log, cfg, w, sz)

	genStart := time.Now()
	d, err := generate(sz)
	if err != nil {
		return result{}, err
	}
	nBatches := 0
	if w.writer {
		// More than the timed phase, or the traced run's counted phase
		// (well under a minute), can send.
		nBatches = int(max(cfg.seconds, 60)/writerPeriod.Seconds()) + 8
	}
	ops, err := newOps(w, d, cfg.seed, nBatches)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "# data entities=%d visits=%d horizon=%d generate_s=%.3f ops_hash=%016x\n",
		len(d.names), d.visits, d.horizon, time.Since(genStart).Seconds(), ops.hash)

	var res result
	var defs []metricDef
	var values map[string]float64
	if cfg.trace {
		defs = perLayer
		values, res, err = runTraced(cfg, w, d, ops, log)
	} else {
		defs = endToEnd
		values, res, err = runTimed(cfg, w, d, ops, log)
	}
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metric, len(defs))
	for _, def := range defs {
		res.Metrics[def.name] = metric{Value: values[def.name], Unit: def.unit}
		fmt.Fprintf(log, "%-36s %14.6g %s\n", def.name, values[def.name], def.unit)
	}
	fmt.Fprintf(log, "ops_attempted=%d ops_failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(log, "# env loadavg_start=%q loadavg_end=%q\n", load, loadavg())
	return res, nil
}

// header prints the environment a run's numbers were taken in and returns
// the load average at start.
func header(log io.Writer, cfg config, w workload, sz size) string {
	load := loadavg()
	clients := "1 reader (closed loop)"
	if w.writer {
		clients += fmt.Sprintf(" + 1 writer (every %v, timed from intended send)", writerPeriod)
	}
	fmt.Fprintf(log, "# dtbench workload=%s seed=%d seconds=%g trace=%t size=%s clients=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, sz.name, clients)
	fmt.Fprintf(log, "# env nproc=%d gomaxprocs=%d go=%s commit=%s loadavg_start=%q speed_probe_ms=%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), load, speedProbe())
	if sz.name != "full" {
		fmt.Fprintf(log, "# SIZE %s: NUMBERS NOT COMPARABLE with the full-size benchmark\n", strings.ToUpper(sz.name))
	}
	var load1 float64
	if _, err := fmt.Sscan(load, &load1); err == nil && load1 > float64(runtime.NumCPU()) {
		fmt.Fprintf(log, "# WARNING: 1-minute load %.2f exceeds nproc %d; timings will be inflated\n", load1, runtime.NumCPU())
	}
	return load
}

// speedProbe times a fixed arithmetic loop of the benchmark's own (median of
// three). The reference box alternates, for tens of seconds at a time,
// between two speeds about 28 % apart; printing the probe lets a reader tell
// a run taken in the slow state from a regression. It is not a metric and
// corrects nothing.
func speedProbe() float64 {
	times := make([]float64, 3)
	for i := range times {
		start := time.Now()
		x, sum := uint64(1), uint64(0)
		for j := 0; j < 10_000_000; j++ {
			x += 0x9E3779B97F4A7C15
			z := (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			sum += z ^ (z >> 31)
		}
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		probeSink = sum
	}
	return median(times)
}

var probeSink uint64 // keeps the probe loop from being optimized away

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	return strings.Join(f[:min(3, len(f))], " ")
}

// commit is the VCS revision stamped into the binary, when the build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// gcBarrier settles the heap between phases so that one phase's garbage is
// not collected on the next phase's clock.
func gcBarrier() {
	runtime.GC()
	runtime.GC()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func logErr(log io.Writer, err error) {
	if err != nil {
		fmt.Fprintln(log, "# FAILED:", err)
	}
}
