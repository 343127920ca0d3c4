package shard

import (
	"sync"
	"sync/atomic"
)

// runPool runs fn(i) for every i in [0, n) over a bounded pool of workers
// pulling indices from a shared counter. It is the one fan-out primitive in
// the package: TopKBatch uses it for queries, BuildIndex for builds.
func runPool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
