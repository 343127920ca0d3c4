package digitaltraces

// Copy-on-write fold tests: a snapshot pinned before a write must keep
// answering bit-identically while (and after) the write's fold derives the
// next generation from it by structural sharing and swaps it in. Run with
// -race — the derive reads the pinned snapshot's store and postings
// concurrently with the queries searching them.

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
		res, _, err := s.topK(seq, k, db.measure)
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
// generation shares every clean entity's state with it.
func TestRefreshCOWIsolation(t *testing.T) {
	const population = 120
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 3})
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
				res, _, err := pinned.topK(seq, k, db.measure)
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

	// Writer: several rounds of one batch dirtying entities (including the
	// query entities themselves), each swapping in a derived snapshot.
	for round := 0; round < 5; round++ {
		var batch []VisitRecord
		for j := 0; j < 25; j++ {
			name := fmt.Sprintf("entity-%d", (round*31+j)%population)
			h := (round + j) % 24
			batch = append(batch, VisitRecord{Entity: name, Venue: VenueName(j % db.NumVenues()), Start: TimeAt(h), End: TimeAt(h + 1)})
		}
		if _, err := db.AddVisits(batch); err != nil {
			t.Fatalf("round %d: AddVisits: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After all swaps: the pinned generation still answers identically; the
	// serving generation has moved on.
	if got := pinnedAnswers(t, db, pinned, queries, k); !reflect.DeepEqual(got, baseline) {
		t.Fatal("pinned snapshot's answers changed after refreshes")
	}
	cur := db.snap.Load()
	if cur == pinned {
		t.Fatal("refresh did not swap a new snapshot in")
	}
	if cur.generation != pinned.generation+5 {
		t.Fatalf("generation = %d, want %d", cur.generation, pinned.generation+5)
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

// TestRefreshCloneAndCOWAgree: a DB maintained by copy-on-write folds
// must answer bit-identically, for every entity, to a twin over the same
// data and updates that rebuilds its index from scratch after each round.
func TestRefreshCloneAndCOWAgree(t *testing.T) {
	const population = 80
	mk := func() *DB {
		t.Helper()
		db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 3})
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
		requireSameAsRebuilt(t, fmt.Sprintf("round %d", round), cow, rebuilt, population, 5)
	}
}

// BenchmarkFold measures one acknowledged batch — store, fold and swap — at a
// fixed population under varying dirty fractions: the cost should scale with
// the dirty count, not with |E|.
func BenchmarkFold(b *testing.B) {
	const entities = 2000
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		b.Run(fmt.Sprintf("dirty=%g", frac), func(b *testing.B) {
			db, err := SyntheticCity(CityConfig{Side: 8, Entities: entities, Days: 3})
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
				batch := make([]VisitRecord, dirtyN)
				for j := range batch {
					h := (i + j) % 24
					batch[j] = VisitRecord{Entity: fmt.Sprintf("entity-%d", (i*131+j)%entities), Venue: VenueName(j % venues), Start: TimeAt(h), End: TimeAt(h + 1)}
				}
				b.StartTimer()
				if _, err := db.AddVisits(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
