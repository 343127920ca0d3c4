package shard

// Correctness tests for the cluster-level generation-keyed cache: a cached
// cluster must be observationally identical to an uncached one, with the
// cache visible only through QueryStats.CacheHit and the IndexStats
// counters; ingest into ANY shard must make the previous answers
// unreachable.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"digitaltraces"
)

// cachedCluster partitions src into n shards with a cluster cache.
func cachedCluster(t *testing.T, src *digitaltraces.DB, n, capacity int) *Cluster {
	t.Helper()
	c, err := Partition(src, Config{
		Shards:    n,
		CacheSize: capacity,
		NewShard: func(int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(propSide, propLevels)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return c
}

func cacheTestDB(t *testing.T) *digitaltraces.DB {
	t.Helper()
	db := propDB(t)
	if _, err := db.AddVisits(randomLogForCache()); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return db
}

func randomLogForCache() []digitaltraces.VisitRecord {
	var vs []digitaltraces.VisitRecord
	for e := 0; e < 20; e++ {
		name := fmt.Sprintf("e%03d", e)
		for h := 0; h <= e%5; h++ {
			vs = append(vs, digitaltraces.VisitRecord{
				Entity: name, Venue: digitaltraces.VenueName(h), Start: digitaltraces.TimeAt(h), End: digitaltraces.TimeAt(h + 1),
			})
		}
		vs = append(vs, digitaltraces.VisitRecord{
			Entity: name, Venue: digitaltraces.VenueName(e % 16), Start: digitaltraces.TimeAt(8), End: digitaltraces.TimeAt(9),
		})
	}
	return vs
}

// TestClusterCacheHitMatchesFanOut: repeats hit; hits serve the exact
// fan-out answer; ingest into one shard invalidates across the cluster.
func TestClusterCacheHitMatchesFanOut(t *testing.T) {
	db := cacheTestDB(t)
	c := cachedCluster(t, db, 4, 32)

	first, qs, err := c.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first query hit")
	}
	second, qs, err := c.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatal("repeat query missed")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("hit changed answer: %v vs %v", first, second)
	}
	full, err := c.fullMerge("e000", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "cached vs full merge", second, full)

	// Ingest one visit — it lands on exactly one shard, but the version
	// vector covers all of them, so the entry must become unreachable and
	// the next query must reflect the new data.
	add := []digitaltraces.VisitRecord{{
		Entity: "e007", Venue: digitaltraces.VenueName(0),
		Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(3),
	}}
	if _, err := c.AddVisits(add); err != nil {
		t.Fatal(err)
	}
	after, qs, err := c.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("query after ingest served from stale shard generations")
	}
	full, err = c.fullMerge("e000", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "post-ingest cached vs full merge", after, full)
}

// TestClusterCacheByExample: the by-example path caches too, keyed by the
// raw visits, and distinct examples never share an entry.
func TestClusterCacheByExample(t *testing.T) {
	db := cacheTestDB(t)
	c := cachedCluster(t, db, 4, 32)

	exA := []digitaltraces.Visit{{Venue: digitaltraces.VenueName(0), Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(2)}}
	exB := []digitaltraces.Visit{{Venue: digitaltraces.VenueName(1), Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(2)}}

	a1, qs, err := c.TopKByExample(exA, 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first example query hit")
	}
	b1, qs, err := c.TopKByExample(exB, 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("distinct example query hit A's entry")
	}
	a2, qs, err := c.TopKByExample(exA, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatal("repeat example query missed")
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("hit changed answer: %v vs %v", a1, a2)
	}
	if reflect.DeepEqual(a1, b1) {
		t.Fatal("two different examples produced identical answers — test data too weak")
	}
	full, err := c.fullMerge("", exA, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "example cached vs full merge", a2, full)
}

// TestClusterCacheStatsAggregation: cluster-level hits/misses/entries show
// up in IndexStats, and dirty shards disable caching rather than serve
// stale answers.
func TestClusterCacheStatsAggregation(t *testing.T) {
	db := cacheTestDB(t)
	c := cachedCluster(t, db, 2, 8)

	for i := 0; i < 2; i++ {
		if _, _, err := c.TopK("e001", 3); err != nil {
			t.Fatal(err)
		}
	}
	st := c.IndexStats()
	if st.CacheHits != 1 || st.CacheMisses < 1 || st.CacheEntries < 1 {
		t.Fatalf("aggregated cache stats = hits %d misses %d entries %d, want 1/≥1/≥1",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}

	// A write moves its shard's generation before it is acknowledged, so
	// the version vector moves with it: the next query must fan out (no
	// hit) yet stay correct.
	if _, err := c.AddVisits([]digitaltraces.VisitRecord{{
		Entity: "e002", Venue: digitaltraces.VenueName(2),
		Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1),
	}}); err != nil {
		t.Fatal(err)
	}
	got, qs, err := c.TopK("e001", 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("hit while a shard was dirty")
	}
	full, err := c.fullMerge("e001", nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "dirty-window cached vs full merge", got, full)
}

// TestClusterCacheConcurrentIngest is the -race interleaving stress: a
// writer ingests while readers query with the cache on; after every ingest
// the writer asserts the pruned+cached answer equals the full-merge reference over
// the same state (read-your-writes, never stale).
func TestClusterCacheConcurrentIngest(t *testing.T) {
	db := cacheTestDB(t)
	c := cachedCluster(t, db, 4, 16)

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
				entity := fmt.Sprintf("e%03d", i%6)
				if _, _, err := c.TopK(entity, 4); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 20; round++ {
		if _, err := c.AddVisits([]digitaltraces.VisitRecord{{
			Entity: fmt.Sprintf("e%03d", round%20),
			Venue:  digitaltraces.VenueName(round % 16),
			Start:  digitaltraces.TimeAt(round % 10),
			End:    digitaltraces.TimeAt(round%10 + 1),
		}}); err != nil {
			t.Fatal(err)
		}
		got, _, err := c.TopK("e000", 4)
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.fullMerge("e000", nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, fmt.Sprintf("round %d", round), got, full)
	}
	close(stop)
	wg.Wait()

	// Quiesced: cache must serve again.
	if _, _, err := c.TopK("e003", 4); err != nil {
		t.Fatal(err)
	}
	if _, qs, err := c.TopK("e003", 4); err != nil || !qs.CacheHit {
		t.Fatalf("post-stress repeat: err=%v hit=%v, want hit", err, qs.CacheHit)
	}
}
