package qcache

import (
	"errors"
	"fmt"
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

// TestHashCollision forces two distinct keys onto one hash slot via the
// *Hashed entry points: the colliding Get must miss (never return the other
// key's value) and a colliding Put overwrites the slot.
func TestHashCollision(t *testing.T) {
	c := New[string](4)
	const h = uint64(0xdeadbeef)

	c.putHashed("v", h, "keyA", "valA")

	// Same hash, different key: full-key compare turns it into a miss.
	if got, ok := c.getHashed("v", h, "keyB"); ok {
		t.Fatalf("colliding Get returned %q — cross-key contamination", got)
	}
	// Colliding Put overwrites the slot; the old key is gone, new is served.
	c.putHashed("v", h, "keyB", "valB")
	if got, ok := c.getHashed("v", h, "keyB"); !ok || got != "valB" {
		t.Fatalf("Get(keyB) = %q, %v; want valB, true", got, ok)
	}
	if _, ok := c.getHashed("v", h, "keyA"); ok {
		t.Fatal("overwritten key still served")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (one slot)", st.Entries)
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
