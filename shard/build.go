package shard

import (
	"errors"
	"fmt"

	"digitaltraces/internal/parallel"
)

// BuildIndex (re)builds every shard's index concurrently — the cluster's
// headline scale win: sequence building and sealing the postings are
// CPU-bound and per-shard independent, so an N-shard build approaches 1/N of
// the single-DB wall clock on N cores (cmd/bench records the actual curve).
// Empty shards are skipped; a cluster with no visits at all errors like an
// empty DB. The failures are joined, each tagged with its shard index (error
// identity is preserved through the wrapping).
//
// The pool has min(GOMAXPROCS, N) workers: more workers than cores would
// only interleave shards on the scheduler — same wall clock, but every
// shard's measured BuildTime would absorb its neighbors' CPU time and the
// critical-path statistic (IndexStats.BuildTime) would be meaningless.
func (c *Cluster) BuildIndex() error {
	if c.NumEntities() == 0 {
		return fmt.Errorf("shard: no visits to index")
	}
	errs := make([]error, len(c.shards))
	parallel.For(len(c.shards), 0, func(i int) {
		if c.shards[i].NumEntities() == 0 {
			return
		}
		if err := c.shards[i].BuildIndex(); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	})
	return errors.Join(errs...)
}
