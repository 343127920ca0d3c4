package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversEveryIndex checks the core pool contract from the inline
// path to well beyond GOMAXPROCS: every index in [0, n) runs exactly once,
// and For returns only after all of them have.
func TestForCoversEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 64, 1000} {
		counts := make([]atomic.Int32, max(n, 1))
		For(n, 0, func(i int) {
			counts[i].Add(1)
		})
		for i := 0; i < n; i++ {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times, want 1", n, i, got)
			}
		}
	}
}

// TestForBoundedWorkers asserts the pool never runs more than
// min(workers, n) iterations at once (workers ≤ 0 meaning GOMAXPROCS) —
// the "bounded" in bounded pool.
func TestForBoundedWorkers(t *testing.T) {
	const n = 200
	for _, workers := range []int{0, 1, 3} {
		limit := int32(workers)
		if workers <= 0 {
			limit = int32(min(runtime.GOMAXPROCS(0), n))
		}
		var inFlight, peak atomic.Int32
		For(n, workers, func(int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			inFlight.Add(-1)
		})
		if got := peak.Load(); got > limit {
			t.Fatalf("workers=%d: observed %d concurrent iterations, limit %d", workers, got, limit)
		}
	}
}

// sentinel is a typed panic value; the pool must re-raise it with its type
// and identity intact so callers can recover it like a sequential loop's.
type sentinel struct{ why string }

// TestForPanicContainment verifies a worker panic does not crash the
// process, the remaining iterations still run, and the original panic value
// re-raises unchanged on the caller's goroutine — type and identity
// preserved, no pool wrapping.
func TestForPanicContainment(t *testing.T) {
	thrown := &sentinel{why: "boom"}
	for _, n := range []int{1, 100} { // inline path and pooled path
		var ran atomic.Int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("n=%d: panic was swallowed", n)
				}
				if got, ok := r.(*sentinel); !ok || got != thrown {
					t.Fatalf("n=%d: recovered %#v, want the thrown *sentinel unchanged", n, r)
				}
			}()
			For(n, 0, func(i int) {
				ran.Add(1)
				if i == 0 {
					panic(thrown)
				}
			})
		}()
		if got := ran.Load(); got != int32(n) {
			t.Fatalf("n=%d: %d iterations ran after panic, want all %d", n, got, n)
		}
	}
}
