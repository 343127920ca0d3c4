package qcache

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New[int](4)
	if _, ok := c.Get("v1", "a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("v1", "a", 42)
	got, ok := c.Get("v1", "a")
	if !ok || got != 42 {
		t.Fatalf("Get = %d, %v; want 42, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVersionBumpWipes(t *testing.T) {
	c := New[string](8)
	c.Put("v1", "a", "old")
	c.Put("v1", "b", "old")

	// A new version makes every v1 entry unreachable...
	if _, ok := c.Get("v2", "a"); ok {
		t.Fatal("v1 entry served under v2")
	}
	// ...including by going back: the wipe is total, not per-version storage.
	if _, ok := c.Get("v1", "a"); ok {
		t.Fatal("v1 entry survived the v2 wipe")
	}
	c.Put("v2", "a", "new")
	if got, ok := c.Get("v2", "a"); !ok || got != "new" {
		t.Fatalf("Get = %q, %v; want new, true", got, ok)
	}
	// Version wipes never count as evictions.
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d after version wipes, want 0", st.Evictions)
	}
}

func TestPutRefreshesSameKey(t *testing.T) {
	c := New[int](2)
	c.Put("v", "a", 1)
	c.Put("v", "a", 2)
	if got, _ := c.Get("v", "a"); got != 2 {
		t.Fatalf("Get = %d, want refreshed 2", got)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v; refresh must not grow or evict", st)
	}
}

func TestCapacityFIFO(t *testing.T) {
	c := New[int](2)
	c.Put("v", "a", 1)
	c.Put("v", "b", 2)
	c.Put("v", "c", 3) // displaces a, the oldest

	if _, ok := c.Get("v", "a"); ok {
		t.Fatal("oldest entry survived over-capacity insert")
	}
	for key, want := range map[string]int{"b": 2, "c": 3} {
		if got, ok := c.Get("v", key); !ok || got != want {
			t.Fatalf("Get(%s) = %d, %v; want %d, true", key, got, ok, want)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries", st)
	}
}

func TestCapacityFloorIsOne(t *testing.T) {
	c := New[int](0)
	c.Put("v", "a", 1)
	c.Put("v", "b", 2)
	if _, ok := c.Get("v", "a"); ok {
		t.Fatal("capacity-0 cache held two entries")
	}
	if got, ok := c.Get("v", "b"); !ok || got != 2 {
		t.Fatalf("Get(b) = %d, %v; want 2, true", got, ok)
	}
}

// TestConcurrentMixedVersions hammers the cache from writers and readers
// racing across version bumps; the correctness claim is that a Get only ever
// returns a value stored under the exact version it presented. Run with
// -race this also proves the locking.
func TestConcurrentMixedVersions(t *testing.T) {
	c := New[string](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				version := fmt.Sprintf("v%d", i%3)
				key := fmt.Sprintf("k%d", i%5)
				want := version + "/" + key
				c.Put(version, key, want)
				if got, ok := c.Get(version, key); ok && got != want {
					t.Errorf("Get(%s, %s) = %q, want %q", version, key, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// fixedVersion is a version function that always reports v as usable.
func fixedVersion(v string) func() (string, bool) {
	return func() (string, bool) { return v, true }
}

// TestDoMissThenHit: the first Do computes and stores, the second is a hit
// that never runs compute.
func TestDoMissThenHit(t *testing.T) {
	c := New[[]int](4)
	calls := 0
	compute := func() ([]int, error) { calls++; return []int{1, 2}, nil }
	for i, wantHit := range []bool{false, true} {
		out, hit, err := Do(c, "k", fixedVersion("v"), compute)
		if err != nil || hit != wantHit || len(out) != 2 || out[0] != 1 || out[1] != 2 {
			t.Fatalf("call %d: out=%v hit=%v err=%v, want [1 2] hit=%v", i, out, hit, err, wantHit)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestDoVersionBumpStoresNothing: a version that moves between the lookup
// and the store means the answer may belong to neither, so nothing is kept.
func TestDoVersionBumpStoresNothing(t *testing.T) {
	c := New[[]int](4)
	gen := 1
	version := func() (string, bool) { return fmt.Sprint(gen), true }
	if _, hit, err := Do(c, "k", version, func() ([]int, error) { gen++; return []int{7}, nil }); hit || err != nil {
		t.Fatalf("hit=%v err=%v, want a plain miss", hit, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after a mid-compute version bump, want 0", st.Entries)
	}
	for _, v := range []string{"1", "2"} {
		if _, ok := c.Get(v, "k"); ok {
			t.Fatalf("answer stored under version %s", v)
		}
	}
}

// TestDoUnusableVersionBypassesCache: an unusable version computes without
// looking up, storing or counting anything.
func TestDoUnusableVersionBypassesCache(t *testing.T) {
	c := New[[]int](4)
	c.Put("v", "k", []int{1})
	unusable := func() (string, bool) { return "v", false }
	out, hit, err := Do(c, "k", unusable, func() ([]int, error) { return []int{2}, nil })
	if err != nil || hit || len(out) != 1 || out[0] != 2 {
		t.Fatalf("out=%v hit=%v err=%v, want the computed [2], no hit", out, hit, err)
	}
	if st := c.Stats(); st != (Stats{Entries: 1}) {
		t.Fatalf("stats = %+v, want untouched {Entries: 1}", st)
	}
	if got, _ := c.Get("v", "k"); got[0] != 1 {
		t.Fatalf("stored value = %v, want the original [1]", got)
	}
}

// TestDoComputeErrorStoresNothing: a failed computation is returned as is
// and leaves no entry behind.
func TestDoComputeErrorStoresNothing(t *testing.T) {
	c := New[[]int](4)
	boom := errors.New("boom")
	if _, hit, err := Do(c, "k", fixedVersion("v"), func() ([]int, error) { return []int{3}, boom }); hit || err != boom {
		t.Fatalf("hit=%v err=%v, want the compute error", hit, err)
	}
	if _, ok := c.Get("v", "k"); ok {
		t.Fatal("failed computation was stored")
	}
}

// TestDoIsolatesSlices: neither the caller's miss result nor its hit result
// shares an array with the stored answer, so clobbering either leaves the
// cache intact.
func TestDoIsolatesSlices(t *testing.T) {
	c := New[[]int](4)
	compute := func() ([]int, error) { return []int{1, 2, 3}, nil }
	miss, _, _ := Do(c, "k", fixedVersion("v"), compute)
	miss[0] = -1
	hit1, wasHit, _ := Do(c, "k", fixedVersion("v"), compute)
	if !wasHit || hit1[0] != 1 {
		t.Fatalf("after clobbering the miss result: hit=%v %v, want hit [1 2 3]", wasHit, hit1)
	}
	hit1[1] = -1
	hit2, _, _ := Do(c, "k", fixedVersion("v"), compute)
	if hit2[1] != 2 {
		t.Fatalf("after clobbering a hit result: %v, want [1 2 3]", hit2)
	}
	if stored, _ := c.Get("v", "k"); &stored[0] == &hit2[0] {
		t.Fatal("hit shares the stored array")
	}
}

// TestDoNilCacheComputes: an engine without a cache passes nil and always
// computes, never reading the version.
func TestDoNilCacheComputes(t *testing.T) {
	version := func() (string, bool) { t.Fatal("version read without a cache"); return "", false }
	out, hit, err := Do[int](nil, "k", version, func() ([]int, error) { return []int{5}, nil })
	if err != nil || hit || len(out) != 1 || out[0] != 5 {
		t.Fatalf("out=%v hit=%v err=%v", out, hit, err)
	}
}

// TestDoRacingVersionBumps drives Do from several goroutines while another
// bumps the version; a computation answers with the version it reads. Every
// hit must carry exactly the version it was looked up under (an answer
// stored under a version it does not belong to is the failure), and every
// miss a version no older than the one current when its Do began. Run with
// -race this also proves the protocol's locking.
func TestDoRacingVersionBumps(t *testing.T) {
	c := New[[]uint64](8)
	var gen atomic.Uint64
	compute := func() ([]uint64, error) { return []uint64{gen.Load()}, nil }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gen.Add(1)
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var seen string
			version := func() (string, bool) { seen = fmt.Sprint(gen.Load()); return seen, true }
			for i := 0; i < 2000; i++ {
				before := gen.Load()
				out, hit, err := Do(c, fmt.Sprint("k", i%3), version, compute)
				switch {
				case err != nil || len(out) != 1:
					t.Errorf("reader %d: %v, %v", r, out, err)
				case hit && fmt.Sprint(out[0]) != seen:
					t.Errorf("reader %d: hit under version %s answered %d", r, seen, out[0])
				case !hit && out[0] < before:
					t.Errorf("reader %d: miss answered %d, older than version %d", r, out[0], before)
				default:
					continue
				}
				return
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestDoRevalidatingServesAndRestamps: a stale entry the revalidator vouches
// for is a hit, judged against the stamp it carried, and is re-stamped, so
// the next lookup at the new version hits without revalidating.
func TestDoRevalidatingServesAndRestamps(t *testing.T) {
	c := New[[]int](4)
	c.Put("v1", "k", []int{1})
	var judged []string
	revalidate := func(since string, val []int) bool { judged = append(judged, since); return true }
	compute := func() ([]int, error) { t.Fatal("compute ran on a revalidated hit"); return nil, nil }
	out, hit, err := DoRevalidating(c, "k", fixedVersion("v2"), revalidate, compute)
	if err != nil || !hit || len(out) != 1 || out[0] != 1 {
		t.Fatalf("out=%v hit=%v err=%v, want the stored [1] as a hit", out, hit, err)
	}
	if _, hit, _ := DoRevalidating(c, "k", fixedVersion("v2"), revalidate, compute); !hit {
		t.Fatal("re-stamped entry missed")
	}
	if !slices.Equal(judged, []string{"v1"}) {
		t.Fatalf("revalidator judged stamps %v, want [v1] once", judged)
	}
	if st := c.Stats(); st != (Stats{Hits: 2, Revalidated: 1, Entries: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoRevalidatingRejectDrops: a stale entry the revalidator rejects (or
// any stale entry, without a revalidator) is dropped, and the lookup is a
// miss whose answer is stored under the new version.
func TestDoRevalidatingRejectDrops(t *testing.T) {
	for _, revalidate := range []Revalidator[[]int]{nil, func(string, []int) bool { return false }} {
		c := New[[]int](4)
		c.Put("v1", "k", []int{1})
		out, hit, err := DoRevalidating(c, "k", fixedVersion("v2"), revalidate, func() ([]int, error) { return []int{2}, nil })
		if err != nil || hit || len(out) != 1 || out[0] != 2 {
			t.Fatalf("out=%v hit=%v err=%v, want the computed [2], no hit", out, hit, err)
		}
		if st := c.Stats(); st != (Stats{Misses: 1, Invalidated: 1, Entries: 1}) {
			t.Fatalf("stats = %+v", st)
		}
		if got, ok := c.Get("v2", "k"); !ok || got[0] != 2 {
			t.Fatalf("Get(v2) = %v, %v; want the recomputed [2]", got, ok)
		}
		if _, ok := c.Get("v1", "k"); ok {
			t.Fatal("rejected v1 entry still served")
		}
	}
}

// TestRevalidationVerdictNeedsItsStamp: revalidation runs outside the lock,
// so a store can replace the entry meanwhile. The verdict then applies to
// nothing: a rejection must not drop the replacement, and an approval must
// not re-stamp it.
func TestRevalidationVerdictNeedsItsStamp(t *testing.T) {
	for _, verdict := range []bool{false, true} {
		c := New[[]int](4)
		c.Put("v1", "k", []int{1})
		racingStore := func(string, []int) bool { c.Put("v3", "k", []int{3}); return verdict }
		c.lookup("v2", "k", racingStore)
		if got, ok := c.Get("v3", "k"); !ok || got[0] != 3 {
			t.Fatalf("verdict %v: Get(v3) = %v, %v; the racing store's entry must stand", verdict, got, ok)
		}
	}
}

// TestDropLeavesFIFO: an entry dropped on lookup leaves the FIFO order too.
// At capacity, one key is dropped and re-put across versions again and
// again between inserts of new keys; against a model of the order, the
// cache must hold exactly the model's entries — never more than capacity —
// and evict exactly the oldest, never a fresh re-put ahead of older entries.
func TestDropLeavesFIFO(t *testing.T) {
	const capacity = 3
	c := New[int](capacity)
	type held struct{ version, key string }
	var model []held // the entries a FIFO cache holds, oldest first
	put := func(version, key string) {
		c.Put(version, key, 0)
		if len(model) == capacity {
			model = model[1:]
		}
		model = append(model, held{version, key})
	}
	put("v0", "a")
	put("v0", "b")
	put("v0", "c")
	for i := 1; i <= 20; i++ {
		v := fmt.Sprint("v", i)
		if _, ok := c.Get(v, "c"); ok {
			t.Fatalf("round %d: stale entry served without a revalidator", i)
		}
		model = slices.DeleteFunc(model, func(h held) bool { return h.key == "c" })
		put(v, "c")
		if i%2 == 0 {
			put(v, fmt.Sprint("x", i))
		}
		if st := c.Stats(); st.Entries != len(model) || st.Entries > capacity {
			t.Fatalf("round %d: %d entries, want %d (capacity %d)", i, st.Entries, len(model), capacity)
		}
		for _, h := range model {
			if _, ok := c.Get(h.version, h.key); !ok {
				t.Fatalf("round %d: %s@%s evicted out of FIFO order; want held %v", i, h.key, h.version, model)
			}
		}
	}
}

// TestDoRevalidatingRacingVersionBumps is TestDoRacingVersionBumps with a
// revalidator: the answer under version g is g/4, so an entry stays exact
// across the three bumps after a multiple of 4, and the revalidator vouches
// for exactly those. Every hit, revalidated or not, must carry the answer of
// the version it was looked up under. Run with -race this also proves the
// unlocked revalidation and its stamp-checked verdict.
func TestDoRevalidatingRacingVersionBumps(t *testing.T) {
	c := New[[]uint64](8)
	var gen atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gen.Add(1)
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var seen uint64
			version := func() (string, bool) { seen = gen.Load(); return fmt.Sprint(seen), true }
			revalidate := func(since string, val []uint64) bool { return val[0] == seen/4 }
			for i := 0; i < 2000; i++ {
				out, hit, err := DoRevalidating(c, fmt.Sprint("k", i%3), version, revalidate, func() ([]uint64, error) { return []uint64{seen / 4}, nil })
				if err != nil || len(out) != 1 || hit && out[0] != seen/4 {
					t.Errorf("reader %d: hit=%v %v under version %d, want [%d]", r, hit, out, seen, seen/4)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	if st := c.Stats(); st.Revalidated == 0 {
		t.Errorf("no entry was revalidated: %+v", st)
	}
}
