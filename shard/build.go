package shard

import (
	"errors"
	"fmt"
	"runtime"
)

// BuildIndex (re)builds every shard's index concurrently — the cluster's
// headline scale win: sequence building and sealing the postings are
// CPU-bound and per-shard independent, so an N-shard build approaches 1/N of
// the single-DB wall clock on N cores (cmd/bench records the actual curve).
// Empty shards are skipped; a cluster with no visits at all errors like an
// empty DB.
func (c *Cluster) BuildIndex() error {
	if c.NumEntities() == 0 {
		return fmt.Errorf("shard: no visits to index")
	}
	return c.eachShard(func(sh Backend) error {
		if sh.NumEntities() == 0 {
			return nil
		}
		return sh.BuildIndex()
	})
}

// Refresh folds dirty entities into every shard's index concurrently.
// Queries stay unblocked — each shard builds its next snapshot aside and
// atomically swaps it.
func (c *Cluster) Refresh() error {
	return c.eachShard(func(sh Backend) error {
		if sh.NumEntities() == 0 {
			return nil
		}
		return sh.Refresh()
	})
}

// eachShard runs fn on every shard over a pool of min(GOMAXPROCS, N)
// workers and joins the failures, each tagged with its shard index (error
// identity is preserved through the wrapping). Builds are CPU-bound, so more
// workers than cores would only interleave shards on the scheduler — same
// wall clock, but every shard's measured BuildTime would absorb its
// neighbors' CPU time and the critical-path statistic (IndexStats.BuildTime)
// would be meaningless.
func (c *Cluster) eachShard(fn func(sh Backend) error) error {
	errs := make([]error, len(c.shards))
	runPool(len(c.shards), runtime.GOMAXPROCS(0), func(i int) {
		if err := fn(c.shards[i]); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	})
	return errors.Join(errs...)
}
