package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// runTimed is the end-to-end run (-trace 0): setupRounds set-ups, a warm-up, then
// `segments` consecutive closed-loop sub-phases covering -seconds, and the
// answer check. Every timing is the median over the sub-phases.
func runTimed(cfg config, w workload, d *dataset, ops *opSeq, log io.Writer) (map[string]float64, result, error) {
	recs := d.visitRecords()
	var st *stack
	setups := make([]float64, setupRounds)
	for i := range setups {
		gcBarrier()
		start := time.Now()
		s, err := setup(w, d, recs)
		if err != nil {
			return nil, result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < setupRounds-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	recs = nil
	gcBarrier()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values := map[string]float64{
		"setup_s":  median(setups),
		"heap_mb":  float64(ms.HeapAlloc) / 1e6,
		"index_mb": float64(st.eng.IndexStats().MemoryBytes) / 1e6,
	}
	fmt.Fprintf(log, "# setup rounds_s=%.4f\n", setups)

	c := newClient(st.url)
	defer c.close()
	rd := &reader{c: c, d: d, ops: ops}
	warm := rd.run(w.warmupOps, time.Time{})
	gcBarrier()

	var wr *writer
	if w.writer {
		wr = startWriter(c, ops.batches)
	}
	segs := make([]segment, segments)
	start := time.Now()
	for i := range segs {
		segs[i] = rd.run(0, start.Add(time.Duration(float64(i+1)*cfg.seconds/segments*float64(time.Second))))
	}
	var res result
	sent := wr.finish(&res, log)
	if wr != nil {
		fmt.Fprintf(log, "# writer batches=%d visits_p50_ms=%.3f visits_p90_ms=%.3f lateness_p50_ms=%.3f lateness_max_ms=%.3f\n",
			wr.sent, median(wr.lat), quantile(wr.lat, 0.9), median(wr.lateness), quantile(wr.lateness, 1))
	}

	logErr(log, warm.err)
	var meas tally
	for _, s := range segs {
		meas.add(s.tally)
		logErr(log, s.err)
	}
	values["topk_p50_ms"] = medianOf(segs, func(s segment) float64 { return quantile(s.lat, 0.5) })
	values["topk_p90_ms"] = medianOf(segs, func(s segment) float64 { return quantile(s.lat, 0.9) })
	values["topk_qps"] = medianOf(segs, segment.qps)
	values["cpu_ms_per_op"] = medianOf(segs, segment.cpuMSPerOp)
	for i, s := range segs {
		fmt.Fprintf(log, "# sub-phase %d samples=%d p50_ms=%.4f p90_ms=%.4f qps=%.2f cpu_ms_per_op=%.4f\n",
			i, len(s.lat), quantile(s.lat, 0.5), quantile(s.lat, 0.9), s.qps(), s.cpuMSPerOp())
	}
	fmt.Fprintf(log, "# measured samples=%d (%d per sub-phase) warmup=%d hit_rate=%.4f checked_per_search=%.1f\n",
		meas.ops-meas.failed, (meas.ops-meas.failed)/segments, warm.ops, ratio(float64(meas.hits), float64(meas.ops)),
		ratio(float64(meas.checked), float64(meas.ops-meas.hits)))

	tw, err := newTwin(d)
	if err != nil {
		return nil, result{}, err
	}
	tw.apply(sent)
	attempted, failed, verr := tw.verify(c, cfg.seed)
	logErr(log, verr)
	res.Attempted += warm.ops + meas.ops + attempted
	res.Failed += warm.failed + meas.failed + failed
	return values, res, nil
}
