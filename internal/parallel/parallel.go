// Package parallel holds the one bounded CPU worker pool: a work-stealing
// parallel-for that runs inline when it would get fewer than two workers.
// The fold's sequence staging, the cluster's shard builds and saves, and
// every engine's TopKBatch run on it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning out across
// min(workers, n) goroutines via a work-stealing counter; workers ≤ 0
// selects GOMAXPROCS. fn must be safe to call concurrently for distinct i
// (writes only to per-index state); For returns once every call has. With
// fewer than two workers the loop runs inline on the caller's goroutine.
//
// A panic in fn does not crash the process from a worker goroutine: the
// first panic is captured, every remaining iteration still runs (workers
// keep draining, so per-index outputs stay fully populated for the
// iterations that succeeded), and the recovered value is re-raised
// unchanged on the caller's goroutine once all workers have returned — a
// caller recovering a sentinel or typed panic value sees exactly what fn
// threw, the same observable contract as a sequential loop wrapped in the
// caller's own defer/recover. (Only the worker's stack trace is lost; the
// re-raised panic unwinds the caller's.)
func For(n, workers int, fn func(int)) {
	// The box lets the CAS tell "no panic yet" from any recovered value.
	type panicValue struct{ val any }
	var panicked atomic.Pointer[panicValue]
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &panicValue{val: r})
			}
		}()
		fn(i)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers < 2 {
		for i := 0; i < n; i++ {
			call(i)
		}
	} else {
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
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	if pv := panicked.Load(); pv != nil {
		panic(pv.val)
	}
}
