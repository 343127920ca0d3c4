package digitaltraces

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/secfile"
)

// TestQueriesDuringRebuildNeverTorn: queries issued while BuildIndex runs
// must return a complete answer from either the pre-rebuild or the
// post-rebuild snapshot — never a torn mix of the two, and never a stall
// error. Run with -race: the snapshot swap is the only thing standing
// between the lock-free readers and the builder.
func TestQueriesDuringRebuildNeverTorn(t *testing.T) {
	const population = 50
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	const k = 5
	queries := []string{"entity-0", "entity-7", "entity-23", "entity-41"}
	oldAns := make(map[string][]Match, len(queries))
	for _, q := range queries {
		m, _, err := db.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		oldAns[q] = m
	}

	// Change the association structure decisively: entity-1 shadows
	// entity-0's whole first day, so the post-rebuild answers differ from
	// the old ones for at least entity-0.
	for h := 0; h < 24; h += 2 {
		if err := db.AddVisit("entity-1", VenueName(h%db.NumVenues()), TimeAt(h), TimeAt(h+2)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddVisit("entity-0", VenueName(h%db.NumVenues()), TimeAt(h), TimeAt(h+2)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	type obs struct {
		query string
		got   []Match
	}
	observations := make(chan obs, 4096)
	errs := make(chan error, 4096)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				m, _, err := db.TopK(q, k)
				if err != nil {
					errs <- fmt.Errorf("TopK(%s) during rebuild: %w", q, err)
					return
				}
				if len(m) != k {
					errs <- fmt.Errorf("TopK(%s) returned %d matches during rebuild, want %d", q, len(m), k)
					return
				}
				select {
				case observations <- obs{q, m}:
				default: // sampling is fine; never block the reader
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(observations)
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The post-rebuild answers, now quiescent and deterministic.
	newAns := make(map[string][]Match, len(queries))
	for _, q := range queries {
		m, _, err := db.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		newAns[q] = m
	}
	if reflect.DeepEqual(oldAns["entity-0"], newAns["entity-0"]) {
		t.Fatal("test vacuous: rebuild did not change entity-0's answer")
	}
	for o := range observations {
		if !reflect.DeepEqual(o.got, oldAns[o.query]) && !reflect.DeepEqual(o.got, newAns[o.query]) {
			t.Errorf("TopK(%s) observed a torn answer %v\n  old snapshot: %v\n  new snapshot: %v",
				o.query, o.got, oldAns[o.query], newAns[o.query])
		}
	}
}

// TestQueriesNotBlockedByRebuild: while a slow BuildIndex is in flight,
// queries keep answering from the previous snapshot instead of queueing
// behind the build — the latency cliff this refactor removes.
func TestQueriesNotBlockedByRebuild(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 8, Entities: 400, Days: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gen0 := db.IndexStats().Generation

	var building atomic.Bool
	done := make(chan error, 1)
	building.Store(true)
	go func() {
		defer building.Store(false)
		done <- db.BuildIndex()
	}()

	served := 0
	for building.Load() {
		start := time.Now()
		if _, _, err := db.TopK("entity-1", 5); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("query stalled %v behind an in-flight rebuild", el)
		}
		served++
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if served == 0 {
		t.Skip("rebuild finished before any query was issued; nothing to assert")
	}
	if gen1 := db.IndexStats().Generation; gen1 != gen0+1 {
		t.Fatalf("generation = %d after rebuild, want %d", gen1, gen0+1)
	}
}

// TestSnapshotGenerationAndSwapTime: the generation counter advances by one
// per swap (build or refresh) and LastSwap moves forward.
func TestSnapshotGenerationAndSwapTime(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 20, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.IndexStats(); got.Generation != 0 || !got.LastSwap.IsZero() {
		t.Fatalf("pre-build stats = %+v, want zero generation and swap time", got)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	s1 := db.IndexStats()
	if s1.Generation != 1 || s1.LastSwap.IsZero() {
		t.Fatalf("after build: %+v, want generation 1 and a swap time", s1)
	}
	if err := db.AddVisit("entity-0", VenueName(1), TimeAt(1), TimeAt(3)); err != nil {
		t.Fatal(err)
	}
	s2 := db.IndexStats()
	if s2.Generation != 2 {
		t.Fatalf("after refresh: generation %d, want 2", s2.Generation)
	}
	if s2.LastSwap.Before(s1.LastSwap) {
		t.Fatalf("LastSwap went backwards: %v then %v", s1.LastSwap, s2.LastSwap)
	}
	// A query and a refused write publish nothing.
	if _, _, err := db.TopK("entity-0", 3); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("entity-0", "no-such-venue", TimeAt(1), TimeAt(3)); err == nil {
		t.Fatal("a visit at an unknown venue was stored")
	}
	if s3 := db.IndexStats(); s3.Generation != 2 {
		t.Fatalf("no-op refresh bumped generation to %d", s3.Generation)
	}
}

// TestSwappedSnapshotSaveLoad: SaveIndex on a refresh-swapped snapshot round
// trips through core.DecodeSnapshot — the loaded index holds the serving
// one's entities and answers queries identically.
func TestSwappedSnapshotSaveLoad(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 30, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Swap at least once past the initial build so the persisted index is a
	// refresh-derived generation, not the build output.
	if err := db.AddVisit("entity-2", VenueName(3), TimeAt(2), TimeAt(6)); err != nil {
		t.Fatal(err)
	}
	if g := db.IndexStats().Generation; g < 2 {
		t.Fatalf("generation %d, want a swapped snapshot (≥ 2)", g)
	}

	var buf bytes.Buffer
	n, err := db.SaveIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || int64(buf.Len()) != n {
		t.Fatalf("SaveIndex wrote %d bytes, buffer has %d", n, buf.Len())
	}

	serving := db.snap.Load()
	sr, err := secfile.NewReaderAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeSnapshot(sr, db.ix)
	if err != nil {
		t.Fatal(err)
	}
	loaded := decoded.MappedPostings(db.ix, serving.store)
	if !reflect.DeepEqual(loaded.Entities(), serving.post.Entities()) {
		t.Fatalf("loaded entities %v != serving entities %v", loaded.Entities(), serving.post.Entities())
	}
	for _, q := range []string{"entity-0", "entity-2", "entity-9"} {
		want, _, err := db.TopK(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		qseq, err := db.lookup(serving, q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := loaded.TopK(qseq, 4, serving.measure)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Match, len(res))
		for i, r := range res {
			got[i] = Match{Entity: serving.byID[r.Entity], Degree: r.Degree}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded index answers %v for %s, serving snapshot answers %v", got, q, want)
		}
	}
}

// TestLookupErrorsNameTheEntity: Degree and TopK identify which entity
// is missing instead of the old anonymous "entity has no indexed visits".
func TestLookupErrorsNameTheEntity(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 10, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Degree("entity-0", "ghost"); err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("Degree unknown-entity error does not name the entity: %v", err)
	}
	if _, _, err := db.TopK("ghost", 3); err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("TopK unknown-entity error does not name the entity: %v", err)
	}

	// An entity registered after the pinned snapshot: reach the not-indexed
	// branch by resolving against the snapshot pinned before its write (the
	// write indexes it before returning).
	stale := db.snap.Load()
	if err := db.AddVisit("late", VenueName(0), TimeAt(1), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.lookup(stale, "late"); err == nil || !strings.Contains(err.Error(), `"late"`) {
		t.Errorf("lookup of not-yet-indexed entity does not name it: %v", err)
	}
}
