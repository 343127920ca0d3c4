// Command serve runs the HTTP/JSON query service (package server) over a
// record file or a synthetic city, on a single DB or an entity-partitioned
// shard cluster.
//
// Serve a tracegen workload:
//
//	tracegen -out traces.bin -entities 2000 -side 24 -days 14
//	serve -addr :8080 -in traces.bin -side 24
//
// Or spin up a self-contained synthetic city, partitioned across 4 shards
// (shards build their indexes in parallel and queries scatter-gather with
// exactly the single-DB answers):
//
//	serve -addr :8080 -synthetic -entities 5000 -side 16 -days 14 -shards 4
//
// Then query it:
//
//	curl 'localhost:8080/topk?entity=entity-0&k=10'
//	curl -d '{"entities":["entity-0","entity-1"],"k":5}' localhost:8080/topk/batch
//	curl localhost:8080/stats   # includes per-shard breakdown when -shards > 1
//
// Restart without re-ingest: with -index the server saves its index image to
// the file on SIGTERM/SIGINT (and on POST /index/save) and, when the file
// exists at boot, serves straight off a read-only mapping of it — query-ready
// in the time it takes to decode the entity table and cell index, resident
// memory growing only with the hot entities, no record re-ingest and no
// rebuild. -bulk ingests a record file larger than memory by external-sorting
// it under a bounded buffer budget (-sort-page, -sort-buffers) instead of
// materializing the raw log in the heap:
//
//	serve -addr :8080 -in huge.bin -side 24 -bulk -index idx.map   # first boot
//	serve -addr :8080 -side 24 -index idx.map                      # restarts
//
// The same holds for -shards N and -shards-remote: the cluster envelope holds
// one image per shard, and a remote shard's section is opened on its shard
// server. A restart at another shard count re-ingests the data instead.
//
// Network-distributed shards: -shards-remote runs this process as the
// coordinator of shard server processes (cmd/shardserve), each hosting one
// partition behind the pull-based remote shard protocol. Queries
// scatter-gather over the network with the same threshold-pruned, exact
// semantics as -shards, /healthz becomes a readiness probe over every shard,
// and /traces rows carry each shard's address:
//
//	shardserve -addr :9001 -side 16 &
//	shardserve -addr :9002 -side 16 &
//	serve -addr :8080 -synthetic -entities 5000 -side 16 \
//	      -shards-remote localhost:9001,localhost:9002
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"digitaltraces"
	"digitaltraces/server"
	"digitaltraces/shard"
	"digitaltraces/shard/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		in        = flag.String("in", "", "record file (tracegen format); empty with -synthetic")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic city instead of loading -in")
		model     = flag.String("model", "im", "synthetic generator: im (SYN) or wifi (REAL substitute)")
		entities  = flag.Int("entities", 2000, "synthetic population size")
		side      = flag.Int("side", 16, "venue grid side (must match tracegen -side for -in)")
		levels    = flag.Int("levels", 4, "sp-index height")
		days      = flag.Int("days", 14, "synthetic horizon in days")
		seed      = flag.Int64("seed", 1, "synthetic generator seed")
		u         = flag.Float64("u", 2, "ADM level exponent")
		v         = flag.Float64("v", 2, "ADM duration exponent")
		shards    = flag.Int("shards", 1, "entity-partitioned shards (1 = single DB; >1 builds in parallel and scatter-gathers queries)")
		shardsRem = flag.String("shards-remote", "", "comma-separated shard server addresses (host:port, cmd/shardserve); runs this process as the coordinator of a network-distributed cluster instead of -shards")
		remTO     = flag.Duration("remote-timeout", 0, "per-RPC deadline for remote shard calls (0 = the client default); build and index transfers get a separate long deadline")
		remConns  = flag.Int("remote-conns", 0, "pooled keep-alive connection cap per remote shard (0 = the client default)")
		cacheSize = flag.Int("cache", 0, "generation-keyed hot-query cache entries (0 = no cache); a write stales only the answers it can change on a single DB, every answer on a cluster")
		traceSize = flag.Int("trace", 0, "per-query trace ring capacity (0 = tracing off); enables GET /traces and per-kind latency quantiles in /stats")
		maxK      = flag.Int("maxk", 1000, "largest k a request may ask for")
		maxBatch  = flag.Int("maxbatch", 10000, "most entities one /topk/batch request may name")
		idxPath   = flag.String("index", "", "serve the index off a read-only mapping of this file when it exists (no re-ingest, no rebuild; boots without -in/-synthetic) and save it there on SIGTERM/SIGINT and POST /index/save")
		rebAuto   = flag.Duration("rebalance-auto", 0, "skew-aware auto-rebalance period for sharded engines (0 = manual via POST /rebalance): every period, plan slot moves from per-shard owned-entity skew and migrate them live")
		slotsInit = flag.String("slots-initial", "", `initial slot→shard placement as shard:slots pairs summing to 256 (e.g. "0:192,1:32,2:32" gives shard 0 three quarters of the keyspace); empty = even; applied before any ingest`)
		bulk      = flag.Bool("bulk", false, "out-of-core ingest: external-sort -in by entity under the -sort-* buffer budget instead of loading the raw log into the heap")
		sortPage  = flag.Int("sort-page", 0, "-bulk external sort page size in bytes (0 = 4096)")
		sortBufs  = flag.Int("sort-buffers", 0, "-bulk external sort buffer pages (0 = 64)")
	)
	flag.Parse()

	opts := []digitaltraces.Option{digitaltraces.WithPaperMeasure(*u, *v)}
	clustered := *shards > 1 || *shardsRem != ""
	if *shardsRem != "" && *shards > 1 {
		log.Fatal("-shards and -shards-remote are mutually exclusive: the shard servers are the partition")
	}
	if *cacheSize > 0 && !clustered {
		// Single DB: the cache lives in the DB itself. For -shards > 1 the
		// cluster gets one cluster-level cache instead (Config.CacheSize) —
		// per-shard caches would never be consulted by the cluster's
		// incremental fan-out path.
		opts = append(opts, digitaltraces.WithQueryCache(*cacheSize))
		log.Printf("query cache: %d entries", *cacheSize)
	}
	if *traceSize > 0 && !clustered {
		// Like the cache, the trace ring lives wherever queries are answered:
		// in the DB when serving one, in the cluster coordinator when sharded
		// (Config.TraceSize) — per-shard rings would miss the fan-out shape.
		opts = append(opts, digitaltraces.WithTracing(*traceSize))
		log.Printf("query tracing: ring of %d", *traceSize)
	}
	var (
		db      *digitaltraces.DB
		err     error
		indexed bool // the load itself built and published the index
	)
	switch {
	case *in != "" && *bulk:
		log.Printf("bulk-loading %s out of core (side=%d levels=%d)", *in, *side, *levels)
		var bstats *digitaltraces.BulkStats
		db, bstats, err = digitaltraces.BulkLoadRecordFile(*in, *side, *levels, digitaltraces.BulkConfig{
			PageSize:    *sortPage,
			BufferPages: *sortBufs,
		}, opts...)
		if err == nil {
			log.Printf("bulk load: %d records, %d entities; sort %v (%d page I/Os, theoretical bound %d), build %v",
				bstats.Records, bstats.Entities, bstats.SortTime.Round(time.Millisecond),
				bstats.Sort.PageIO(), bstats.TheoreticalPageIO, bstats.BuildTime.Round(time.Millisecond))
			indexed = !clustered
		}
	case *in != "":
		log.Printf("loading %s (side=%d levels=%d)", *in, *side, *levels)
		db, err = digitaltraces.LoadRecordFile(*in, *side, *levels, opts...)
	case *synthetic:
		log.Printf("generating %s city: %d entities, %d² venues, %d days", *model, *entities, *side, *days)
		switch *model {
		case "im":
			db, err = digitaltraces.SyntheticCity(digitaltraces.CityConfig{
				Side: *side, Levels: *levels, Entities: *entities, Days: *days, Seed: *seed,
			}, opts...)
		case "wifi":
			db, err = digitaltraces.SyntheticWiFiCity(digitaltraces.WiFiCityConfig{
				Side: *side, Levels: *levels, Devices: *entities, Days: *days, Seed: *seed,
			}, opts...)
		default:
			log.Fatalf("unknown model %q (want im or wifi)", *model)
		}
	case *shardsRem != "":
		// A coordinator may boot with no data source: the remote cluster
		// starts empty and fills through /visits or the index image (shard
		// servers boot empty too — all ingest routes through the
		// coordinator's router).
		log.Printf("booting empty coordinator")
	case *idxPath != "" && fileExists(*idxPath):
		// No data source at all: boot an empty grid DB and serve straight
		// off the mapped index image — the no-re-ingest restart path.
		log.Printf("booting with no data source; serving off index %s", *idxPath)
		db, err = digitaltraces.NewGridDB(*side, *levels, opts...)
	default:
		log.Fatal("nothing to serve: pass -in <file>, -synthetic, or -index <existing file>")
	}
	if err != nil {
		log.Fatal(err)
	}

	// Both load paths produce grid-backed DBs, so NewGridDB with the same
	// parameters builds epoch-compatible empty shards to partition into.
	engine := digitaltraces.Engine(db)
	if *shardsRem != "" {
		var addrs []string
		for _, a := range strings.Split(*shardsRem, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			log.Fatal("-shards-remote names no addresses")
		}
		if *cacheSize > 0 {
			log.Printf("query cache: %d entries (coordinator-level)", *cacheSize)
		}
		if *traceSize > 0 {
			log.Printf("query tracing: ring of %d (coordinator-level)", *traceSize)
		}
		backends := make([]shard.Backend, len(addrs))
		ropts := remote.Options{CallTimeout: *remTO, MaxConns: *remConns}
		for i, a := range addrs {
			c, err := remote.Dial(a, ropts)
			if err != nil {
				log.Fatalf("dialing shard %d: %v", i, err)
			}
			backends[i] = c
			log.Printf("  shard %d: %s", i, c.Addr())
		}
		cfg := shard.Config{Backends: backends, CacheSize: *cacheSize, TraceSize: *traceSize, InitialSlots: parseSlotsInitial(*slotsInit, len(backends))}
		var (
			cluster *shard.Cluster
			err     error
		)
		if db != nil {
			log.Printf("partitioning %d entities across %d remote shards", db.NumEntities(), len(addrs))
			cluster, err = shard.Partition(db, cfg)
		} else {
			cluster, err = shard.NewCluster(cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		engine = cluster
	} else if *shards > 1 {
		log.Printf("partitioning %d entities across %d shards", db.NumEntities(), *shards)
		if *cacheSize > 0 {
			log.Printf("query cache: %d entries (cluster-level)", *cacheSize)
		}
		if *traceSize > 0 {
			log.Printf("query tracing: ring of %d (cluster-level)", *traceSize)
		}
		cluster, err := shard.Partition(db, shard.Config{
			Shards:       *shards,
			CacheSize:    *cacheSize,
			TraceSize:    *traceSize,
			InitialSlots: parseSlotsInitial(*slotsInit, *shards),
			NewShard: func(i int) (*digitaltraces.DB, error) {
				return digitaltraces.NewGridDB(*side, *levels, opts...)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		engine = cluster
	}

	start := time.Now()
	switch {
	case openImage(engine, *idxPath):
		// Serving off the mapping: no rebuild, no re-ingest.
	case indexed:
		// The bulk load built and published the index already.
	case engine.NumEntities() == 0:
		// An empty coordinator (remote shards, no data source) has nothing
		// to index yet; each shard's first query builds its index.
		log.Printf("no entities yet; skipping initial build")
	default:
		if err := engine.BuildIndex(); err != nil {
			log.Fatal(err)
		}
	}
	st := engine.IndexStats()
	log.Printf("indexed %d entities in %v: ~%.1f MiB",
		st.Entities, time.Since(start).Round(time.Millisecond), float64(st.MemoryBytes)/(1<<20))
	if st.Mapped {
		log.Printf("serving mapped: sequences decode lazily, once each, from %s", *idxPath)
	}
	if c, ok := engine.(*shard.Cluster); ok {
		for _, ss := range c.ShardStats() {
			log.Printf("  shard %d: %d entities, ~%.1f MiB", ss.Shard, ss.Entities, float64(ss.Index.MemoryBytes)/(1<<20))
		}
	}

	srvOpts := []server.Option{server.WithMaxK(*maxK), server.WithMaxBatch(*maxBatch)}
	if *idxPath != "" {
		srvOpts = append(srvOpts, server.WithIndexPath(*idxPath))
	}
	if *slotsInit != "" && !clustered {
		log.Fatal("-slots-initial needs a sharded engine (-shards > 1 or -shards-remote)")
	}
	log.Printf("serving on %s (endpoints: /topk /topk/batch /visits /index/save /stats /traces /rebalance /healthz)", *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(engine, srvOpts...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until a shutdown signal, then drain in-flight requests and — the
	// restart contract — persist the index image so the next boot serves off
	// it instead of re-ingesting and rebuilding.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *rebAuto > 0 {
		c, ok := engine.(*shard.Cluster)
		if !ok {
			log.Fatal("-rebalance-auto needs a sharded engine (-shards > 1 or -shards-remote)")
		}
		log.Printf("auto-rebalance: every %v", *rebAuto)
		go func() {
			t := time.NewTicker(*rebAuto)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rep, err := c.Rebalance(0)
					if err != nil {
						log.Printf("auto-rebalance: %v", err)
						continue
					}
					if len(rep.Moves) > 0 {
						log.Printf("auto-rebalance: moved %d slots, skew %.2f → %.2f (max %d → %d owned)",
							len(rep.Moves), rep.BeforeSkew, rep.AfterSkew, rep.BeforeMax, rep.AfterMax)
					}
				}
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
		if *idxPath != "" {
			t0 := time.Now()
			n, err := server.SaveIndexFile(engine, *idxPath)
			if err != nil {
				log.Fatalf("saving index to %s: %v", *idxPath, err)
			}
			log.Printf("saved index: %d bytes to %s in %v", n, *idxPath, time.Since(t0).Round(time.Millisecond))
		}
		if c, ok := engine.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}

// openImage serves the index image at path over the engine: restart cost is
// the decode, and each entity's sequences are decoded once, when a query
// first touches them. A missing file is a normal first boot. Any open failure is fatal: an image
// that does not match the data must stop the boot, not degrade into a silent
// rebuild the operator did not budget for.
func openImage(engine digitaltraces.Engine, path string) bool {
	if path == "" {
		return false
	}
	if !fileExists(path) {
		log.Printf("cold start: no index at %s yet", path)
		return false
	}
	t0 := time.Now()
	if err := engine.OpenIndex(path); err != nil {
		log.Fatalf("restart from %s failed: %v", path, err)
	}
	log.Printf("restart: serving off %s after %v", path, time.Since(t0).Round(time.Millisecond))
	return true
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// parseSlotsInitial turns a "0:192,1:32,2:32" spec (shard:slots pairs, slots
// summing to shard.NumSlots) into the slot→shard assignment handed to
// shard.Config.InitialSlots: each pair claims the next run of slots in
// order. Empty spec means the default even placement (nil).
func parseSlotsInitial(spec string, shards int) []int {
	if spec == "" {
		return nil
	}
	assign := make([]int, 0, shard.NumSlots)
	for _, pair := range strings.Split(spec, ",") {
		var sh, n int
		if _, err := fmt.Sscanf(strings.TrimSpace(pair), "%d:%d", &sh, &n); err != nil {
			log.Fatalf("-slots-initial: bad pair %q (want shard:slots)", pair)
		}
		if sh < 0 || sh >= shards {
			log.Fatalf("-slots-initial: shard %d outside the %d-shard cluster", sh, shards)
		}
		if n < 0 {
			log.Fatalf("-slots-initial: negative slot count %d for shard %d", n, sh)
		}
		for i := 0; i < n; i++ {
			assign = append(assign, sh)
		}
	}
	if len(assign) != shard.NumSlots {
		log.Fatalf("-slots-initial: slot counts sum to %d, want %d", len(assign), shard.NumSlots)
	}
	return assign
}
