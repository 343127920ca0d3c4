package main

// -scenario rebalance: the live-migration cost. A deliberately skewed
// cluster (Config.InitialSlots hands one shard twice its fair share of the
// 256 routing slots before ingest) serves the same query sequence three times:
// quiescent, while Rebalance(0) migrates slots underneath the queries, and
// again after the map settles. An identically built, never
// rebalanced twin answers every in-migration query too, and the two must
// agree bit-for-bit — the exactness invariant is measured here, not assumed.
// The headline numbers are the migration-window p99 as a multiple of the
// quiescent p99 (the acceptance budget is ≤ 1.5×, asserted via
// -assert-rebalance-p99x) and the owned-entity skew before/after (after must
// be lower, or the scenario errors — a rebalance that doesn't rebalance is a
// bug, not a data point).

import (
	"fmt"
	"log"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

// RebalanceRun is one phase row of the -scenario rebalance measurement.
type RebalanceRun struct {
	Phase     string  `json:"phase"` // "quiescent", "migration" or "post"
	Shards    int     `json:"shards"`
	Queries   int     `json:"queries"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	// Migration row only: the executed plan and its wall clock, plus the p99
	// multiple vs the quiescent row — the number the ≤ 1.5× budget reads.
	MovedSlots       int     `json:"moved_slots,omitempty"`
	RebalanceSeconds float64 `json:"rebalance_seconds,omitempty"`
	P99VsQuiescent   float64 `json:"p99_vs_quiescent,omitempty"`
	// Migration row only: owned-entity skew (max/mean per-shard owned
	// counts) on both sides of the rebalance.
	SkewBefore     float64 `json:"skew_before,omitempty"`
	SkewAfter      float64 `json:"skew_after,omitempty"`
	MaxOwnedBefore int     `json:"max_owned_before,omitempty"`
	MaxOwnedAfter  int     `json:"max_owned_after,omitempty"`
}

// skewedSlots builds an InitialSlots table where shard 0 owns twice its fair
// share of the slot space and the rest is dealt round-robin — the engineered
// hot shard the rebalance exists to dissolve.
func skewedSlots(shards int) []int {
	assign := make([]int, shard.NumSlots)
	hot := 2 * shard.NumSlots / shards
	if hot > shard.NumSlots {
		hot = shard.NumSlots
	}
	for s := 0; s < hot; s++ {
		assign[s] = 0
	}
	for s := hot; s < shard.NumSlots; s++ {
		assign[s] = 1 + (s-hot)%(shards-1)
	}
	return assign
}

func rebalanceScenario(cfg digitaltraces.CityConfig, side, levels, k, queries, shards int) ([]RebalanceRun, error) {
	if queries < 1 || shards < 2 {
		return nil, fmt.Errorf("rebalance scenario: need -queries ≥ 1 and -rebalance-shards ≥ 2")
	}
	names := make([]string, queries)
	for i := range names {
		names[i] = fmt.Sprintf("entity-%d", (i*37)%cfg.Entities)
	}

	src, err := digitaltraces.SyntheticCity(cfg)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	newSkewed := func() (*shard.Cluster, error) {
		return shard.Partition(src, shard.Config{
			Shards:       shards,
			InitialSlots: skewedSlots(shards),
			NewShard: func(int) (*digitaltraces.DB, error) {
				return digitaltraces.NewGridDB(side, levels)
			},
		})
	}
	c, err := newSkewed()
	if err != nil {
		return nil, fmt.Errorf("rebalance scenario: partition: %w", err)
	}
	defer c.Close()
	// The twin: identical data, identical skewed map, never rebalanced — the
	// bit-for-bit reference for every query sampled during the migration.
	twin, err := newSkewed()
	if err != nil {
		return nil, fmt.Errorf("rebalance scenario: twin partition: %w", err)
	}
	defer twin.Close()
	for _, eng := range []*shard.Cluster{c, twin} {
		if err := eng.BuildIndex(); err != nil {
			return nil, fmt.Errorf("rebalance scenario: build: %w", err)
		}
	}

	// One untimed warmup pass over both engines so first-touch lazy work
	// (cache-cold pages, first gather per entity) doesn't own the quiescent
	// tail the migration window is judged against. The twin is quiescent, so
	// its warmup answers double as the bit-for-bit reference the migration
	// loop checks against without paying a second query per sample.
	reference := make(map[string][]digitaltraces.Match, len(names))
	for _, name := range names {
		if _, _, err := c.TopK(name, k); err != nil {
			return nil, fmt.Errorf("rebalance scenario: warmup TopK(%s): %w", name, err)
		}
		ms, _, err := twin.TopK(name, k)
		if err != nil {
			return nil, fmt.Errorf("rebalance scenario: twin TopK(%s): %w", name, err)
		}
		reference[name] = ms
	}

	sample := func(phase string) (RebalanceRun, error) {
		run := RebalanceRun{Phase: phase, Shards: shards}
		runtime.GC()
		lat := make([]time.Duration, 0, queries)
		start := time.Now()
		for _, name := range names {
			qStart := time.Now()
			if _, _, err := c.TopK(name, k); err != nil {
				return run, fmt.Errorf("rebalance scenario (%s): TopK(%s): %w", phase, name, err)
			}
			lat = append(lat, time.Since(qStart))
		}
		elapsed := time.Since(start)
		slices.Sort(lat)
		run.Queries = len(lat)
		run.OpsPerSec = float64(len(lat)) / elapsed.Seconds()
		run.P50Micros = float64(percentile(lat, 50).Microseconds())
		run.P99Micros = float64(percentile(lat, 99).Microseconds())
		log.Printf("rebalance scenario %s: %d queries, %.0f q/s, p50 %.0fµs, p99 %.0fµs",
			phase, run.Queries, run.OpsPerSec, run.P50Micros, run.P99Micros)
		return run, nil
	}

	quiescent, err := sample("quiescent")
	if err != nil {
		return nil, err
	}

	// Migration window: Rebalance(0) runs on its own goroutine; the query
	// loop samples latency only while the plan is executing, and every answer
	// is checked (untimed) against the never-rebalanced twin.
	var inFlight atomic.Bool
	inFlight.Store(true)
	type rebResult struct {
		rep  shard.RebalanceReport
		secs float64
		err  error
	}
	done := make(chan rebResult, 1)
	go func() {
		defer inFlight.Store(false)
		start := time.Now()
		rep, err := c.Rebalance(0)
		done <- rebResult{rep, time.Since(start).Seconds(), err}
	}()
	mig := RebalanceRun{Phase: "migration", Shards: shards}
	var lat []time.Duration
	for i := 0; inFlight.Load(); i++ {
		name := names[i%len(names)]
		qStart := time.Now()
		ms, _, err := c.TopK(name, k)
		if err != nil {
			return nil, fmt.Errorf("rebalance scenario (migration): TopK(%s): %w", name, err)
		}
		lat = append(lat, time.Since(qStart))
		if want := reference[name]; !reflect.DeepEqual(ms, want) {
			return nil, fmt.Errorf("rebalance scenario: TopK(%s) diverges mid-migration: %v vs twin %v", name, ms, want)
		}
	}
	res := <-done
	if res.err != nil {
		return nil, fmt.Errorf("rebalance scenario: Rebalance: %w", res.err)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("rebalance scenario: no query overlapped the migration window; raise -entities")
	}
	slices.Sort(lat)
	mig.Queries = len(lat)
	mig.OpsPerSec = float64(len(lat)) / res.secs
	mig.P50Micros = float64(percentile(lat, 50).Microseconds())
	mig.P99Micros = float64(percentile(lat, 99).Microseconds())
	mig.MovedSlots = len(res.rep.Moves)
	mig.RebalanceSeconds = res.secs
	mig.SkewBefore = res.rep.BeforeSkew
	mig.SkewAfter = res.rep.AfterSkew
	mig.MaxOwnedBefore = res.rep.BeforeMax
	mig.MaxOwnedAfter = res.rep.AfterMax
	if quiescent.P99Micros > 0 {
		mig.P99VsQuiescent = mig.P99Micros / quiescent.P99Micros
	}
	log.Printf("rebalance scenario migration: moved %d slots in %.3fs; %d overlapping queries, p50 %.0fµs, p99 %.0fµs (%.2fx quiescent)",
		mig.MovedSlots, mig.RebalanceSeconds, mig.Queries, mig.P50Micros, mig.P99Micros, mig.P99VsQuiescent)
	log.Printf("  owned skew %.2f → %.2f (max %d → %d owned entities)",
		mig.SkewBefore, mig.SkewAfter, mig.MaxOwnedBefore, mig.MaxOwnedAfter)
	if mig.MovedSlots == 0 {
		return nil, fmt.Errorf("rebalance scenario: planner moved nothing off an engineered hot shard")
	}
	if mig.SkewAfter >= mig.SkewBefore {
		return nil, fmt.Errorf("rebalance scenario: skew did not improve (%.2f → %.2f)", mig.SkewBefore, mig.SkewAfter)
	}

	post, err := sample("post")
	if err != nil {
		return nil, err
	}
	// Post-rebalance answers must still match the untouched twin.
	for _, name := range names {
		ms, _, err := c.TopK(name, k)
		if err != nil {
			return nil, err
		}
		if want := reference[name]; !reflect.DeepEqual(ms, want) {
			return nil, fmt.Errorf("rebalance scenario: TopK(%s) diverges after rebalance: %v vs twin %v", name, ms, want)
		}
	}
	return []RebalanceRun{quiescent, mig, post}, nil
}
