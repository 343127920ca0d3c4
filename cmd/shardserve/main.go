// Command shardserve hosts one digitaltraces.DB shard behind the pull-based
// remote shard protocol (package shard/remote), for coordinators started with
// serve -shards-remote. The shard boots empty — the coordinator owns the
// entity partition and routes every ingest, so pre-populating a shard here
// would be rejected at cluster construction (the cluster's global
// arrival-order registry, which fixes cross-shard degree-tie order, can only
// be built by routing all ingest through it).
//
// A 3-shard deployment:
//
//	shardserve -addr :9001 -side 16 &
//	shardserve -addr :9002 -side 16 &
//	shardserve -addr :9003 -side 16 &
//	serve -addr :8080 -synthetic -entities 5000 -side 16 \
//	      -shards-remote localhost:9001,localhost:9002,localhost:9003
//
// Every shard must be constructed with the same grid parameters as the
// coordinator's data source (-side, -levels, -u, -v); the
// coordinator verifies hierarchy, time unit and epoch compatibility at dial
// time and refuses to start on a mismatch.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"digitaltraces"
	"digitaltraces/shard/remote"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardserve: ")
	var (
		addr      = flag.String("addr", ":9001", "listen address")
		side      = flag.Int("side", 16, "venue grid side (must match the coordinator's)")
		levels    = flag.Int("levels", 4, "sp-index height (must match the coordinator's)")
		u         = flag.Float64("u", 2, "ADM level exponent")
		v         = flag.Float64("v", 2, "ADM duration exponent")
		streamTTL = flag.Duration("stream-ttl", 0, "expire search streams idle this long (0 = the protocol default); the backstop for coordinator crashes")
	)
	flag.Parse()

	db, err := digitaltraces.NewGridDB(*side, *levels, digitaltraces.WithPaperMeasure(*u, *v))
	if err != nil {
		log.Fatal(err)
	}
	ss := remote.NewServer(db, remote.ServerConfig{StreamTTL: *streamTTL})

	log.Printf("serving empty %d² shard on %s (protocol %s at /shard/*)", *side, *addr, remote.ProtoVersion)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           ss.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
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
		ss.Close()
		db.Close()
	}
}
