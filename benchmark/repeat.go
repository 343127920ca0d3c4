package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the spread check and the tests read.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// repeatMain runs cfg.repeat end-to-end runs of each workload, every run a
// fresh process with its own seed, exactly as the acceptance check does, and
// prints per metric the median, the quartiles, the spread (distance between
// the quartiles over the median, which the bound is compared with) and the
// full range. With -check a spread above its bound, or any failed run, makes
// the exit code non-zero.
func repeatMain(cfg config, out io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		return 2
	}
	bounds := map[string]float64{}
	if cfg.check {
		m, err := readManifest("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtbench: -check needs BENCHMARK.json in the working directory:", err)
			return 2
		}
		for _, e := range m.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	code := 0
	for _, name := range names {
		samples := map[string][]float64{}
		for i := 0; i < cfg.repeat; i++ {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-size", cfg.size)
			cmd.Stderr = io.Discard
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "dtbench: %s seed %d: %v\n", name, cfg.seed+int64(i), err)
				code = 1
				continue
			}
			var res result
			if err := json.Unmarshal(bytes.TrimSpace(stdout), &res); err != nil {
				fmt.Fprintf(os.Stderr, "dtbench: %s seed %d: %v\n", name, cfg.seed+int64(i), err)
				code = 1
				continue
			}
			fmt.Fprintf(out, "  run seed=%d", cfg.seed+int64(i))
			for _, def := range endToEnd {
				samples[def.name] = append(samples[def.name], res.Metrics[def.name].Value)
				fmt.Fprintf(out, " %s=%.5g", def.name, res.Metrics[def.name].Value)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%s (%d runs, seeds %d..%d, %g s each, size %s)\n", name, len(samples["setup_s"]), cfg.seed, cfg.seed+int64(cfg.repeat)-1, cfg.seconds, cfg.size)
		fmt.Fprintf(out, "  %-16s %-5s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "range", "bound")
		for _, def := range endToEnd {
			xs := samples[def.name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := ratio(q3-q1, med)
			rng := ratio(quantile(xs, 1)-quantile(xs, 0), med)
			verdict := ""
			if b, ok := bounds[def.name]; ok {
				verdict = fmt.Sprintf("%6.3f", b)
				if def.name != "setup_s" && spread > b {
					verdict += " EXCEEDED"
					code = 1
				} else if spread > b/3 {
					verdict += " (above a third)"
				}
			}
			fmt.Fprintf(out, "  %-16s %-5s %12.5g %12.5g %12.5g %7.2f%% %7.2f%% %s\n", def.name, def.unit, med, q1, q3, 100*spread, 100*rng, verdict)
		}
	}
	return code
}
