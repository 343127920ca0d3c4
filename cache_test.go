package digitaltraces

// Correctness tests for the generation-keyed query cache: a cached DB must
// be observationally identical to an uncached one — same answers, always
// fresh — with the cache visible only through QueryStats.CacheHit and the
// IndexStats counters. Run under -race the concurrent test also proves the
// ingest/query/cache interleavings.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// cachePair builds a cached DB and an uncached control, fed identically.
func cachePair(t *testing.T, capacity int, visits []VisitRecord) (cached, control *DB) {
	t.Helper()
	var err error
	if cached, err = NewGridDB(4, 3, WithQueryCache(capacity)); err != nil {
		t.Fatal(err)
	}
	if control, err = NewGridDB(4, 3); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{cached, control} {
		if _, err := db.AddVisits(visits); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	return cached, control
}

func overlapVisits() []VisitRecord {
	var vs []VisitRecord
	for i, e := range []string{"a", "b", "c", "d"} {
		// Everyone shares venue-0 at hour 0; each entity then diverges, so
		// degrees against "a" are distinct and nonzero.
		vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(1)})
		for h := 1; h <= i; h++ {
			vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(0), Start: TimeAt(h), End: TimeAt(h + 1)})
		}
		vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(i + 1), Start: TimeAt(8), End: TimeAt(9)})
	}
	return vs
}

// TestCacheHitServesExactAnswer: the second identical query is a hit and
// returns the identical answer; ingest that dirties the data invalidates it
// (generation bump), and post-ingest answers match an uncached control.
func TestCacheHitServesExactAnswer(t *testing.T) {
	cached, control := cachePair(t, 8, overlapVisits())

	first, qs1, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, qs2, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !qs2.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit changed the answer: %v vs %v", first, second)
	}
	want, _, err := control.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("cached answer %v != control %v", second, want)
	}

	// Ingest that changes the answer: "d" now shadows "a" closely. The old
	// entry must become unreachable via the generation bump — no explicit
	// invalidation exists to get wrong.
	boost := []VisitRecord{
		{Entity: "d", Venue: VenueName(1), Start: TimeAt(1), End: TimeAt(4)},
		{Entity: "a", Venue: VenueName(1), Start: TimeAt(1), End: TimeAt(4)},
	}
	for _, db := range []*DB{cached, control} {
		if _, err := db.AddVisits(boost); err != nil {
			t.Fatal(err)
		}
	}
	after, qs3, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs3.CacheHit {
		t.Fatal("query after ingest served from the stale generation")
	}
	want, _, err = control.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("post-ingest cached answer %v != control %v", after, want)
	}
	if reflect.DeepEqual(after, first) {
		t.Fatal("boost did not change the answer — invalidation untested")
	}
}

// TestCacheDistinctKeys: different k, different entity, and by-example
// queries occupy distinct entries — a hit never crosses queries.
func TestCacheDistinctKeys(t *testing.T) {
	cached, control := cachePair(t, 32, overlapVisits())
	type q struct {
		run  func(*DB) ([]Match, QueryStats, error)
		name string
	}
	ex := []Visit{{Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(2)}}
	queries := []q{
		{name: "a/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("a", 2) }},
		{name: "a/3", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("a", 3) }},
		{name: "b/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("b", 2) }},
		{name: "ex/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopKByExample(ex, 2) }},
		{name: "ex/3", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopKByExample(ex, 3) }},
	}
	// Two passes: first fills, second must hit — and both passes must match
	// the control exactly, proving no entry bled into another key.
	for pass := 0; pass < 2; pass++ {
		for _, query := range queries {
			got, qs, err := query.run(cached)
			if err != nil {
				t.Fatal(err)
			}
			if hit := pass == 1; qs.CacheHit != hit {
				t.Fatalf("pass %d %s: CacheHit = %v, want %v", pass, query.name, qs.CacheHit, hit)
			}
			want, _, err := query.run(control)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d %s: %v != control %v", pass, query.name, got, want)
			}
		}
	}
}

// TestCacheExampleDiscretizationSharing: two by-example queries whose raw
// visits differ but discretize to the same ST-cells are the same query and
// share one entry.
func TestCacheExampleDiscretizationSharing(t *testing.T) {
	cached, _ := cachePair(t, 8, overlapVisits())
	a := []Visit{{Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(1)}}
	// Same venue, same hour cell — offset by minutes inside it.
	b := []Visit{{Venue: VenueName(0), Start: TimeAt(0).Add(10 * time.Minute), End: TimeAt(0).Add(50 * time.Minute)}}

	first, qs, err := cached.TopKByExample(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first example query hit")
	}
	second, qs, err := cached.TopKByExample(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatal("equal-after-discretization example missed the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("shared entry served different answers: %v vs %v", first, second)
	}
}

// TestCacheEvictionRespectsCapacity: a capacity-2 cache holds at most two
// entries, displaces FIFO, and counts the displacements.
func TestCacheEvictionRespectsCapacity(t *testing.T) {
	cached, _ := cachePair(t, 2, overlapVisits())
	for _, e := range []string{"a", "b", "c"} {
		if _, _, err := cached.TopK(e, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := cached.IndexStats()
	if st.CacheEntries > 2 {
		t.Fatalf("CacheEntries = %d > capacity 2", st.CacheEntries)
	}
	if st.CacheEvictions != 1 {
		t.Fatalf("CacheEvictions = %d, want 1", st.CacheEvictions)
	}
	// "a" was displaced: repeating it misses; "c" is resident: it hits.
	if _, qs, err := cached.TopK("a", 2); err != nil || qs.CacheHit {
		t.Fatalf("displaced query: err=%v hit=%v, want miss", err, qs.CacheHit)
	}
	if _, qs, err := cached.TopK("c", 2); err != nil || !qs.CacheHit {
		t.Fatalf("resident query: err=%v hit=%v, want hit", err, qs.CacheHit)
	}
	if st := cached.IndexStats(); st.CacheHits < 1 || st.CacheMisses < 4 {
		t.Fatalf("counters = %+v, want ≥1 hit and ≥4 misses", st)
	}
}

// TestCacheConcurrentIngestNeverStale is the -race stress: a writer
// alternates ingest (boosting "w" against "a") with an immediate exact
// assertion against an uncached control, while readers hammer the same
// queries to maximize cache/ingest interleavings. The writer's asserts catch
// any stale-generation service; the race detector catches unsound locking.
func TestCacheConcurrentIngestNeverStale(t *testing.T) {
	seed := overlapVisits()
	seed = append(seed, VisitRecord{Entity: "w", Venue: VenueName(9), Start: TimeAt(20), End: TimeAt(21)})
	cached, control := cachePair(t, 16, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				entity := []string{"a", "b", "w"}[i%3]
				if _, _, err := cached.TopK(entity, 3); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	for round := 0; round < 30; round++ {
		add := []VisitRecord{{
			Entity: "w",
			Venue:  VenueName(0),
			Start:  TimeAt(round % 8),
			End:    TimeAt(round%8 + 1),
		}}
		if _, err := cached.AddVisits(add); err != nil {
			t.Fatal(err)
		}
		if _, err := control.AddVisits(add); err != nil {
			t.Fatal(err)
		}
		// Read-your-writes: the very next query must fold the ingest, cache
		// or no cache.
		got, _, err := cached.TopK("a", 4)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := control.TopK("a", 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cached %v != control %v — stale answer served", round, got, want)
		}
	}
	close(stop)
	wg.Wait()

	// With ingest quiesced, the cache must function again: prime, then hit.
	if _, _, err := cached.TopK("b", 3); err != nil {
		t.Fatal(err)
	}
	if _, qs, err := cached.TopK("b", 3); err != nil || !qs.CacheHit {
		t.Fatalf("post-stress repeat query: err=%v hit=%v, want hit", err, qs.CacheHit)
	}
}

// TestCacheResultIsolation: mutating a returned slice must not corrupt the
// cached copy (both hit and miss paths hand out private slices).
func TestCacheResultIsolation(t *testing.T) {
	cached, _ := cachePair(t, 8, overlapVisits())
	first, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	clobber := func(ms []Match) {
		for i := range ms {
			ms[i] = Match{Entity: fmt.Sprintf("junk%d", i), Degree: -1}
		}
	}
	pristine := append([]Match(nil), first...)
	clobber(first) // miss-path result
	second, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, pristine) {
		t.Fatalf("clobbering the miss result corrupted the cache: %v", second)
	}
	clobber(second) // hit-path result
	third, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, pristine) {
		t.Fatalf("clobbering a hit result corrupted the cache: %v", third)
	}
}
