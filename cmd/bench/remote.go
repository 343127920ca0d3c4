package main

// -scenario remote: the network-distributed cluster A/B. The same synthetic
// city is partitioned two ways — an in-process N-shard cluster and an
// N-shard cluster whose every shard sits behind a loopback HTTP shard server
// (shard/remote) — and both answer the same query sequence. The comparison
// isolates what the transport costs when the network itself is free (~50µs
// loopback RTT): serialization, HTTP framing and the client/server hop, but
// crucially NOT extra round trips — the shard protocol spends one rank call
// per shard asked per query, so the remote row's pull_rounds_per_query (the
// busiest shard's calls per query) reads 1. Every answer is cross-checked bit-for-bit against the
// in-process cluster before a row is reported.

import (
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/remote"
)

// RemoteRun is one engine row of the -scenario remote comparison. The
// in-process row ("cluster") carries only the latency columns; the loopback
// row ("remote") adds the per-query network accounting read from the shard
// clients' RPC counters, and P99VsInProcess — the transport's latency
// multiplier, the number the ≤ 2.5× loopback acceptance bound reads.
type RemoteRun struct {
	Engine    string  `json:"engine"` // "cluster" (in-process) or "remote" (loopback servers)
	Shards    int     `json:"shards"`
	Queries   int     `json:"queries"`
	OpsPerSec float64 `json:"ops_per_sec"` // parallel batch throughput
	P50Micros float64 `json:"p50_us"`      // sequential single-query latency
	P99Micros float64 `json:"p99_us"`
	// Remote rows only: RPCs issued per query summed over all shard clients,
	// the rank calls among them, and the busiest shard's rank calls per query
	// (1: each shard is asked at most once per query).
	RPCsPerQuery       float64 `json:"rpcs_per_query,omitempty"`
	PullsPerQuery      float64 `json:"pulls_per_query,omitempty"`
	PullRoundsPerQuery float64 `json:"pull_rounds_per_query,omitempty"`
	P99VsInProcess     float64 `json:"p99_vs_in_process,omitempty"`
}

func remoteScenario(cfg digitaltraces.CityConfig, side, levels, k, queries, shards int, seed int64) ([]RemoteRun, error) {
	if queries < 1 || shards < 1 {
		return nil, fmt.Errorf("remote scenario: need -queries and -remote-shards ≥ 1")
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, queries)
	for i := range names {
		names[i] = fmt.Sprintf("entity-%d", rng.Intn(cfg.Entities))
	}

	src, err := digitaltraces.SyntheticCity(cfg)
	if err != nil {
		return nil, err
	}
	defer src.Close()

	// In-process baseline.
	localC, err := shard.Partition(src, shard.Config{
		Shards: shards,
		NewShard: func(int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(side, levels)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("remote scenario: in-process partition: %w", err)
	}
	defer localC.Close()
	if err := localC.BuildIndex(); err != nil {
		return nil, fmt.Errorf("remote scenario: in-process build: %w", err)
	}
	local := RemoteRun{Engine: "cluster", Shards: shards, Queries: queries}
	reference := make(map[string][]digitaltraces.Match, len(names))
	runtime.GC()
	lat := make([]time.Duration, 0, queries)
	for _, name := range names {
		qStart := time.Now()
		ms, _, err := localC.TopK(name, k)
		if err != nil {
			return nil, fmt.Errorf("remote scenario: in-process TopK(%s): %w", name, err)
		}
		lat = append(lat, time.Since(qStart))
		reference[name] = ms
	}
	slices.Sort(lat)
	local.P50Micros = float64(percentile(lat, 50).Microseconds())
	local.P99Micros = float64(percentile(lat, 99).Microseconds())
	bStart := time.Now()
	if _, _, err := localC.TopKBatch(names, k, 0); err != nil {
		return nil, fmt.Errorf("remote scenario: in-process batch: %w", err)
	}
	local.OpsPerSec = float64(queries) / time.Since(bStart).Seconds()
	log.Printf("remote scenario cluster shards=%d: %.0f q/s, p50 %.0fµs, p99 %.0fµs",
		shards, local.OpsPerSec, local.P50Micros, local.P99Micros)

	// Loopback-remote cluster: every shard behind its own HTTP server.
	servers := make([]*remote.Server, shards)
	listeners := make([]*httptest.Server, shards)
	clients := make([]*remote.Client, shards)
	backends := make([]shard.Backend, shards)
	defer func() {
		for i := range servers {
			if clients[i] != nil {
				clients[i].Close()
			}
			if listeners[i] != nil {
				listeners[i].Close()
			}
			if servers[i] != nil {
				servers[i].Close()
			}
		}
	}()
	for i := 0; i < shards; i++ {
		sdb, err := digitaltraces.NewGridDB(side, levels)
		if err != nil {
			return nil, err
		}
		servers[i] = remote.NewServer(sdb, remote.ServerConfig{})
		listeners[i] = httptest.NewServer(servers[i].Handler())
		clients[i], err = remote.Dial(listeners[i].URL, remote.Options{})
		if err != nil {
			return nil, fmt.Errorf("remote scenario: dialing loopback shard %d: %w", i, err)
		}
		backends[i] = clients[i]
	}
	remoteC, err := shard.Partition(src, shard.Config{Backends: backends})
	if err != nil {
		return nil, fmt.Errorf("remote scenario: remote partition: %w", err)
	}
	defer remoteC.Close()
	if err := remoteC.BuildIndex(); err != nil {
		return nil, fmt.Errorf("remote scenario: remote build: %w", err)
	}

	rrun := RemoteRun{Engine: "remote", Shards: shards, Queries: queries}
	before := make([]remote.Metrics, shards)
	for i, c := range clients {
		before[i] = c.Metrics()
	}
	runtime.GC()
	lat = lat[:0]
	for _, name := range names {
		qStart := time.Now()
		ms, _, err := remoteC.TopK(name, k)
		if err != nil {
			return nil, fmt.Errorf("remote scenario: remote TopK(%s): %w", name, err)
		}
		lat = append(lat, time.Since(qStart))
		// The acceptance self-check: the transport must not perturb a bit.
		if want := reference[name]; !reflect.DeepEqual(ms, want) {
			return nil, fmt.Errorf("remote scenario: TopK(%s) diverges over the network: %v vs %v", name, ms, want)
		}
	}
	var rpcs, pulls, maxPulls int64
	for i, c := range clients {
		m := c.Metrics()
		rpcs += m.RPCs - before[i].RPCs
		pulls += m.Pulls - before[i].Pulls
		maxPulls = max(maxPulls, m.Pulls-before[i].Pulls)
	}
	slices.Sort(lat)
	rrun.P50Micros = float64(percentile(lat, 50).Microseconds())
	rrun.P99Micros = float64(percentile(lat, 99).Microseconds())
	rrun.RPCsPerQuery = float64(rpcs) / float64(queries)
	rrun.PullsPerQuery = float64(pulls) / float64(queries)
	// A query asks each shard at most once, so this reads 1.
	rrun.PullRoundsPerQuery = float64(maxPulls) / float64(queries)
	if local.P99Micros > 0 {
		rrun.P99VsInProcess = rrun.P99Micros / local.P99Micros
	}
	bStart = time.Now()
	if _, _, err := remoteC.TopKBatch(names, k, 0); err != nil {
		return nil, fmt.Errorf("remote scenario: remote batch: %w", err)
	}
	rrun.OpsPerSec = float64(queries) / time.Since(bStart).Seconds()
	log.Printf("remote scenario remote shards=%d: %.0f q/s, p50 %.0fµs, p99 %.0fµs (%.2fx in-process)",
		shards, rrun.OpsPerSec, rrun.P50Micros, rrun.P99Micros, rrun.P99VsInProcess)
	log.Printf("  per query: %.1f RPCs, %.1f rank calls over %d shards, %.1f on the busiest",
		rrun.RPCsPerQuery, rrun.PullsPerQuery, shards, rrun.PullRoundsPerQuery)

	return []RemoteRun{local, rrun}, nil
}
