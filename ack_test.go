package digitaltraces_test

// Acknowledgement means indexed: once an engine has published an index,
// AddVisits returns only after the index covers its visits, so no fold call,
// policy or query-side fold stands between a write and the queries after it.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/remote"
)

// TestAckMeansIndexed: on a built DB, AddVisits returns with nothing pending,
// the generation one fold further on, and TopK answering over the new visits
// — with no Refresh anywhere. Before the first build (the load phase) a
// write builds nothing.
func TestAckMeansIndexed(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 30, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddVisit("entity-0", digitaltraces.VenueName(0), digitaltraces.TimeAt(1), digitaltraces.TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.Generation != 0 || st.DirtyCount != 30 {
		t.Fatalf("a load-phase write left generation %d, %d dirty; want no index and all 30 pending", st.Generation, st.DirtyCount)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before := db.IndexStats()
	const far = 2*24 + 50
	n, err := db.AddVisits([]digitaltraces.VisitRecord{
		{Entity: "newcomer", Venue: digitaltraces.VenueName(3), Start: digitaltraces.TimeAt(far), End: digitaltraces.TimeAt(far + 2)},
		{Entity: "entity-7", Venue: digitaltraces.VenueName(3), Start: digitaltraces.TimeAt(far + 1), End: digitaltraces.TimeAt(far + 3)},
	})
	if err != nil || n != 2 {
		t.Fatalf("AddVisits: stored %d, err %v", n, err)
	}
	after := db.IndexStats()
	if after.DirtyCount != 0 || after.Generation != before.Generation+1 || after.Entities != before.Entities+1 {
		t.Fatalf("after the acknowledged write: %d dirty, generation %d → %d, %d → %d entities; want 0 dirty, one fold, the newcomer indexed",
			after.DirtyCount, before.Generation, after.Generation, before.Entities, after.Entities)
	}
	got, _, err := db.TopK("newcomer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entity != "entity-7" || got[0].Degree <= 0 {
		t.Fatalf("TopK(newcomer) = %v, want entity-7 first", got)
	}
	if st := db.IndexStats(); st.Generation != after.Generation {
		t.Fatalf("the query moved the generation %d → %d: it folded what the write should have", after.Generation, st.Generation)
	}
}

// TestAckMeansIndexedConcurrent runs writers and readers against a DB, a
// local cluster and a remote 3-shard cluster, each with its query cache on,
// and no fold call anywhere: every query issued after an AddVisits returns
// sees that write.
func TestAckMeansIndexedConcurrent(t *testing.T) {
	log := func() []digitaltraces.VisitRecord {
		var out []digitaltraces.VisitRecord
		rng := rand.New(rand.NewSource(7))
		for e := range 60 {
			for range 1 + rng.Intn(4) {
				h := rng.Intn(48)
				out = append(out, digitaltraces.VisitRecord{
					Entity: fmt.Sprintf("entity-%d", e),
					Venue:  digitaltraces.VenueName(rng.Intn(16)),
					Start:  digitaltraces.TimeAt(h),
					End:    digitaltraces.TimeAt(h + 1 + rng.Intn(3)),
				})
			}
		}
		return out
	}()
	seed := func(t *testing.T, eng digitaltraces.Engine) {
		t.Helper()
		if _, err := eng.AddVisits(log); err != nil {
			t.Fatal(err)
		}
		if err := eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("db", func(t *testing.T) {
		db, err := digitaltraces.NewGridDB(4, 3, digitaltraces.WithQueryCache(64))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		seed(t, db)
		ackRace(t, db)
	})
	t.Run("cluster", func(t *testing.T) {
		c, err := shard.NewCluster(shard.Config{
			Shards:    3,
			NewShard:  func(int) (*digitaltraces.DB, error) { return digitaltraces.NewGridDB(4, 3) },
			CacheSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		seed(t, c)
		ackRace(t, c)
	})
	t.Run("remote3", func(t *testing.T) {
		backends := make([]shard.Backend, 3)
		for i := range backends {
			db, err := digitaltraces.NewGridDB(4, 3)
			if err != nil {
				t.Fatal(err)
			}
			srv := remote.NewServer(db, remote.ServerConfig{})
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				hs.Close()
				srv.Close()
				db.Close()
			})
			if backends[i], err = remote.Dial(hs.URL, remote.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		c, err := shard.NewCluster(shard.Config{Backends: backends, CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		seed(t, c)
		ackRace(t, c)
	})
}

// ackRace drives the writers and readers. Writer g's i-th write is the
// newcomer "ack-g-i", alone in its own cell past the seeded data. A reader
// picks a writer, reads how many of its writes are acknowledged, and checks
// the latest: TopK must resolve it by name, a batch over it and another
// writer's latest must answer both, and a query by example over its cell
// must rank it first. It also queries the writer's next cell, not yet
// written, so the cache holds answers the next write makes stale.
func ackRace(t *testing.T, eng digitaltraces.Engine) {
	const writers, readers, perWriter, base = 3, 3, 30, 200
	cell := func(g, i int) (string, digitaltraces.Visit) {
		h := base + 2*(g*perWriter+i)
		return fmt.Sprintf("ack-%d-%d", g, i), digitaltraces.Visit{
			Venue: digitaltraces.VenueName(0), Start: digitaltraces.TimeAt(h), End: digitaltraces.TimeAt(h + 1),
		}
	}
	var (
		acked   [writers]atomic.Int64
		writing atomic.Int64
		wg      sync.WaitGroup
	)
	writing.Store(writers)
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			for i := range perWriter {
				name, v := cell(g, i)
				if _, err := eng.AddVisits([]digitaltraces.VisitRecord{{Entity: name, Venue: v.Venue, Start: v.Start, End: v.End}}); err != nil {
					t.Error(err)
					return
				}
				acked[g].Store(int64(i + 1))
			}
		}()
	}
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for last := false; !last; {
				last = writing.Load() == 0
				g := rng.Intn(writers)
				n := int(acked[g].Load())
				if n < perWriter {
					_, next := cell(g, n)
					if _, _, err := eng.TopKByExample([]digitaltraces.Visit{next}, 1); err != nil {
						t.Error(err)
						return
					}
				}
				if n == 0 {
					runtime.Gosched()
					continue
				}
				name, v := cell(g, n-1)
				if _, _, err := eng.TopK(name, 3); err != nil {
					t.Errorf("TopK(%s) after its write was acknowledged: %v", name, err)
					return
				}
				batch := []string{name}
				other := (g + 1) % writers
				if m := int(acked[other].Load()); m > 0 {
					otherName, _ := cell(other, m-1)
					batch = append(batch, otherName)
				}
				out, _, err := eng.TopKBatch(batch, 3, 2)
				if err != nil {
					t.Errorf("TopKBatch(%v) after their writes were acknowledged: %v", batch, err)
					return
				}
				for _, item := range batch {
					if len(out[item]) == 0 {
						t.Errorf("TopKBatch(%v): no answer for %s", batch, item)
						return
					}
				}
				got, _, err := eng.TopKByExample([]digitaltraces.Visit{v}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != 1 || got[0].Entity != name || got[0].Degree <= 0 {
					t.Errorf("query over %s's cell after its write was acknowledged: %v, want %s first", name, got, name)
					return
				}
			}
		}()
	}
	wg.Wait()
}
