package digitaltraces

// Copy-on-write refresh tests: a snapshot pinned before a Refresh must keep
// answering bit-identically while (and after) the refresh derives the next
// generation from it by structural sharing and swaps it in. Run with -race —
// the path-copying derive reads the pinned snapshot's nodes concurrently
// with the queries searching them.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// pinnedAnswers evaluates the query set directly against one pinned
// snapshot, bypassing snapshotForQuery so the test controls exactly which
// generation answers.
func pinnedAnswers(t testing.TB, db *DB, s *snapshot, queries []string, k int) map[string][]Match {
	t.Helper()
	out := make(map[string][]Match, len(queries))
	for _, q := range queries {
		seq, err := db.lookup(s, q)
		if err != nil {
			t.Fatalf("lookup(%s): %v", q, err)
		}
		res, _, err := s.topK(seq, k)
		if err != nil {
			t.Fatalf("pinned topK(%s): %v", q, err)
		}
		out[q] = res
	}
	return out
}

// TestRefreshCOWIsolation is the acceptance property of the copy-on-write
// refresh: a snapshot pinned before the refresh returns bit-identical top-k
// results during and after a concurrent derive+swap, even though the new
// generation shares all of its clean subtrees.
func TestRefreshCOWIsolation(t *testing.T) {
	const population = 120
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 3}, WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	pinned := db.snap.Load()
	const k = 5
	queries := []string{"entity-0", "entity-7", "entity-23", "entity-41", "entity-99"}
	baseline := pinnedAnswers(t, db, pinned, queries, k)

	// Readers hammer the pinned snapshot while refreshes derive from it.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				seq, err := db.lookup(pinned, q)
				if err != nil {
					errs <- err
					return
				}
				res, _, err := pinned.topK(seq, k)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, baseline[q]) {
					errs <- fmt.Errorf("pinned answer for %s changed during refresh: %v, was %v", q, res, baseline[q])
					return
				}
			}
		}()
	}

	// Writer+refresher: several rounds of dirtying entities (including the
	// query entities themselves, so their paths really get copied) and
	// swapping in a derived snapshot.
	for round := 0; round < 5; round++ {
		for j := 0; j < 25; j++ {
			name := fmt.Sprintf("entity-%d", (round*31+j)%population)
			h := (round + j) % 24
			if err := db.AddVisit(name, VenueName(j%db.NumVenues()), TimeAt(h), TimeAt(h+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Refresh(); err != nil {
			t.Fatalf("round %d: Refresh: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After all swaps: the pinned generation still answers identically and
	// still validates; the serving generation has moved on.
	if got := pinnedAnswers(t, db, pinned, queries, k); !reflect.DeepEqual(got, baseline) {
		t.Fatal("pinned snapshot's answers changed after refreshes")
	}
	if err := pinned.tree.Validate(); err != nil {
		t.Fatalf("pinned tree invalid after refreshes: %v", err)
	}
	cur := db.snap.Load()
	if cur == pinned {
		t.Fatal("refresh did not swap a new snapshot in")
	}
	if cur.generation != pinned.generation+5 {
		t.Fatalf("generation = %d, want %d", cur.generation, pinned.generation+5)
	}
	if err := cur.tree.Validate(); err != nil {
		t.Fatalf("serving tree invalid: %v", err)
	}
}

// requireSameAsRebuilt asserts db answers TopK bit-identically to twin for
// every entity, after twin — fed the same visits — rebuilds from scratch.
func requireSameAsRebuilt(t *testing.T, label string, db, twin *DB, population, k int) {
	t.Helper()
	if err := twin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < population; q++ {
		name := fmt.Sprintf("entity-%d", q)
		got, _, err := db.TopK(name, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := twin.TopK(name, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s: refreshed %v != rebuilt %v", label, name, got, want)
		}
	}
}

// TestRefreshCloneAndCOWAgree: a DB maintained by copy-on-write refreshes
// must answer bit-identically, for every entity, to a twin over the same
// data and updates that rebuilds its index from scratch after each round.
func TestRefreshCloneAndCOWAgree(t *testing.T) {
	const population = 80
	mk := func() *DB {
		t.Helper()
		db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 3}, WithHashFunctions(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	cow, rebuilt := mk(), mk()
	for round := 0; round < 3; round++ {
		for j := 0; j < 15; j++ {
			name := fmt.Sprintf("entity-%d", (round*17+j*3)%population)
			h := (round*2 + j) % 24
			for _, db := range []*DB{cow, rebuilt} {
				if err := db.AddVisit(name, VenueName(j%db.NumVenues()), TimeAt(h), TimeAt(h+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cow.Refresh(); err != nil {
			t.Fatal(err)
		}
		requireSameAsRebuilt(t, fmt.Sprintf("round %d", round), cow, rebuilt, population, 5)
	}
}

// BenchmarkRefresh measures one fold-and-swap at a fixed population under
// varying dirty fractions: the cost should scale with the dirty count, not
// with |E|.
func BenchmarkRefresh(b *testing.B) {
	const entities = 2000
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		b.Run(fmt.Sprintf("dirty=%g", frac), func(b *testing.B) {
			db, err := SyntheticCity(CityConfig{Side: 8, Entities: entities, Days: 3}, WithHashFunctions(32))
			if err != nil {
				b.Fatal(err)
			}
			if err := db.BuildIndex(); err != nil {
				b.Fatal(err)
			}
			dirtyN := max(int(frac*entities), 1)
			venues := db.NumVenues()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < dirtyN; j++ {
					name := fmt.Sprintf("entity-%d", (i*131+j)%entities)
					h := (i + j) % 24
					if err := db.AddVisit(name, VenueName(j%venues), TimeAt(h), TimeAt(h+1)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := db.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRefreshRetightensAfterManyUpdates: the COW lineage carries its
// removal count, and once it exceeds the population one refresh escalates
// to a full-copy replay (resetting the count and re-tightening group
// signatures) before returning to O(dirty) derives. This is the only test
// that reaches the clone-and-replay branch, so every escalated refresh's
// answers are also checked against a twin rebuilt from scratch.
func TestRefreshRetightensAfterManyUpdates(t *testing.T) {
	const population = 10
	mk := func() *DB {
		t.Helper()
		db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 2}, WithHashFunctions(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	db, twin := mk(), mk()
	sawReset := false
	last := 0
	for round := 0; round < 2*population; round++ {
		for j := 0; j < 3; j++ {
			name := fmt.Sprintf("entity-%d", (round*3+j)%population)
			for _, d := range []*DB{db, twin} {
				if err := d.AddVisit(name, VenueName(j), TimeAt((round+j)%40), TimeAt((round+j)%40+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Refresh(); err != nil {
			t.Fatal(err)
		}
		// After an escalated (full-copy) refresh the count restarts at that
		// round's own updates; a drop below the previous value is the reset.
		r := db.snap.Load().tree.Removals()
		if r < last {
			sawReset = true
			requireSameAsRebuilt(t, fmt.Sprintf("retightened at round %d", round), db, twin, population, 5)
		}
		if r > population+3 {
			t.Fatalf("round %d: removals %d never re-tightened (population %d)", round, r, population)
		}
		last = r
	}
	if !sawReset {
		t.Fatal("no refresh escalated to a re-tightening full copy")
	}
}
