package digitaltraces

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digitaltraces/internal/extsort"
	"digitaltraces/internal/trace"
)

// TestConcurrentQueriesWithWriters hammers the read API from many goroutines
// while writers ingest visits, each folded before it returns. Run with -race: the
// test's job is to prove the DB's locking discipline, not any particular
// result (results against a moving index are whatever the captured snapshot
// says). Every call must still either succeed or fail with a real API error.
func TestConcurrentQueriesWithWriters(t *testing.T) {
	const (
		population = 60
		days       = 4
		readers    = 6
		writers    = 2
		perReader  = 120
		perWriter  = 40
	)
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: days})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	horizonHours := days * 24
	venues := db.NumVenues()

	var wg sync.WaitGroup
	errs := make(chan error, readers*perReader+writers*perWriter)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				name := fmt.Sprintf("entity-%d", (g*31+i)%population)
				switch i % 5 {
				case 0, 1:
					if _, _, err := db.TopK(name, 5); err != nil {
						errs <- fmt.Errorf("TopK: %w", err)
					}
				case 2:
					if _, err := db.Rank(RankQuery{Entity: name, Want: 5, Keep: func(e string) bool { return len(e)%2 == 0 }}); err != nil {
						errs <- fmt.Errorf("Rank: %w", err)
					}
				case 3:
					other := fmt.Sprintf("entity-%d", (g*17+i+1)%population)
					if _, err := db.Degree(name, other); err != nil {
						errs <- fmt.Errorf("Degree: %w", err)
					}
				case 4:
					ex := []Visit{{Venue: VenueName((g + i) % venues), Start: TimeAt(1), End: TimeAt(4)}}
					if _, _, err := db.TopKByExample(ex, 3); err != nil {
						errs <- fmt.Errorf("TopKByExample: %w", err)
					}
				}
				if i%10 == 0 {
					db.IndexStats()
					db.NumEntities()
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Alternate between new entities and churn on existing ones.
				name := fmt.Sprintf("hot-%d-%d", g, i)
				if i%2 == 1 {
					name = fmt.Sprintf("entity-%d", (g*13+i)%population)
				}
				start := (g*7 + i) % (horizonHours / 4)
				err := db.AddVisit(name, VenueName((g*5+i)%venues), TimeAt(start), TimeAt(start+2))
				if err != nil {
					errs <- fmt.Errorf("AddVisit: %w", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The writers' entities all landed; the DB is still consistent.
	want := population + writers*perWriter/2
	if got := db.NumEntities(); got != want {
		t.Fatalf("NumEntities = %d, want %d", got, want)
	}
	if _, _, err := db.TopK("hot-0-0", 3); err != nil {
		t.Fatalf("post-stress TopK over ingested entity: %v", err)
	}
}

// TestQueryAfterBeyondHorizonVisit: visits past the last time unit of the
// first build fold in incrementally when they are written — the index has no
// time horizon. Each acknowledged batch moves the generation by one, keeps
// the lineage's BuildTime, reports its own LastRefreshDuration, and leaves
// every answer equal to a twin built from scratch over the same data.
func TestQueryAfterBeyondHorizonVisit(t *testing.T) {
	const days, population = 2, 20
	mk := func() *DB {
		db, err := SyntheticCity(CityConfig{Side: 4, Entities: population, Days: days})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db, twin := mk(), mk()
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		how := fmt.Sprintf("write %d", round)
		before := db.IndexStats()
		far := days*24 + 100*(round+1)
		for _, d := range []*DB{db, twin} {
			if _, err := d.AddVisits([]VisitRecord{
				{Entity: "traveler", Venue: VenueName(0), Start: TimeAt(far), End: TimeAt(far + 2)},
				{Entity: "entity-3", Venue: VenueName(0), Start: TimeAt(far + 1), End: TimeAt(far + 3)},
			}); err != nil {
				t.Fatal(err)
			}
		}
		after := db.IndexStats()
		if after.Generation != before.Generation+1 || after.BuildTime != before.BuildTime || after.LastRefreshDuration <= 0 || pendingCount(db) != 0 {
			t.Fatalf("fold by %s: generation %d → %d, build time %v → %v, last refresh %v, dirty %d; want one incremental refresh",
				how, before.Generation, after.Generation, before.BuildTime, after.BuildTime, after.LastRefreshDuration, pendingCount(db))
		}
		requireSameAsRebuilt(t, "fold by "+how, db, twin, population, 5)
		got, _, err := db.TopK("traveler", 3)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _ := twin.TopK("traveler", 3); !reflect.DeepEqual(got, want) || got[0].Entity != "entity-3" {
			t.Fatalf("fold by %s: traveler's matches %v, rebuilt twin %v", how, got, want)
		}
	}
}

// TestTopKBatchMatchesSequential: a batch answer is exactly the per-entity
// sequential answers, and the aggregate stats add up.
func TestTopKBatchMatchesSequential(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 6, Entities: 80, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	names := db.Entities()
	batch, stats, err := db.TopKBatch(names, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(names) {
		t.Fatalf("batch has %d results, want %d", len(batch), len(names))
	}
	totalChecked, totalPE := 0, 0.0
	for _, name := range names {
		seq, qs, err := db.TopK(name, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[name], seq) {
			t.Fatalf("batch[%s] = %v, want sequential %v", name, batch[name], seq)
		}
		totalChecked += qs.Checked
		totalPE += qs.PE
	}
	if stats.Checked != totalChecked {
		t.Errorf("aggregate Checked = %d, want sum of sequential %d", stats.Checked, totalChecked)
	}
	if want := totalPE / float64(len(names)); math.Abs(stats.PE-want) > 1e-9 {
		t.Errorf("aggregate PE = %v, want mean %v", stats.PE, want)
	}
	if stats.Pruned < 0 || stats.Pruned > 1 || stats.Elapsed <= 0 {
		t.Errorf("aggregate stats out of range: %+v", stats)
	}

	// Error paths.
	if _, _, err := db.TopKBatch(nil, k, 2); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := db.TopKBatch([]string{"nobody"}, k, 2); err == nil {
		t.Error("unknown entity accepted")
	}
}

// TestLoadRecordFile round-trips a record file through the public loader and
// checks queries match a DB built from the same visits directly.
func TestLoadRecordFile(t *testing.T) {
	const side, levels = 4, 3
	recs := []trace.Record{
		{Entity: 3, Base: 0, Start: 0, End: 4},
		{Entity: 3, Base: 5, Start: 6, End: 8},
		{Entity: 9, Base: 0, Start: 1, End: 4}, // overlaps entity 3 at venue 0
		{Entity: 12, Base: 15, Start: 0, End: 2},
	}
	path := filepath.Join(t.TempDir(), "traces.bin")
	if err := extsort.WriteRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	db, err := LoadRecordFile(path, side, levels)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.NumEntities(); got != 3 {
		t.Fatalf("NumEntities = %d, want 3", got)
	}
	matches, _, err := db.TopK("entity-3", 2)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Entity != "entity-9" || matches[0].Degree <= 0 {
		t.Fatalf("top match = %+v, want associated entity-9", matches[0])
	}
	if matches[1].Entity != "entity-12" || matches[1].Degree != 0 {
		t.Fatalf("second match = %+v, want unassociated entity-12", matches[1])
	}

	// Bad inputs are rejected.
	if _, err := LoadRecordFile(filepath.Join(t.TempDir(), "missing.bin"), side, levels); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRecordFile(empty, side, levels); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := LoadRecordFile(path, 2, levels); err == nil {
		t.Error("out-of-grid base accepted (side too small)")
	}
}

// TestVisitsOfConcurrentFold (-race): a fold drops the pending records it
// folded, so VisitsOf must read the serving sequences and the pending tail as
// one state. A writer ingests, each visit folded before it returns, while a
// second writer's folds interleave, and every VisitsOf result covers every
// visit acknowledged before the call — checked
// on the cells TopKByExample discretizes it to, which it then answers over.
// The writer waits for a read after each visit, so reads and folds keep
// interleaving; each probe entity takes a short run of visits, so a read
// stays cheap.
func TestVisitsOfConcurrentFold(t *testing.T) {
	const writes, run = 300, 20
	db, err := NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Visit i is probe-(i/run)'s, hour i at venue i mod 16: no two coalesce,
	// so each stands for one cell.
	visit := func(i int) (string, string, time.Time, time.Time) {
		return fmt.Sprintf("probe-%d", i/run), VenueName(i % 16), TimeAt(i), TimeAt(i + 1)
	}
	entity, venue, start, end := visit(0)
	if err := db.AddVisit(entity, venue, start, end); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var (
		acked atomic.Int64 // visits 0..acked-1 are acknowledged
		reads atomic.Int64
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	acked.Store(1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i < writes; i++ {
			if err := db.AddVisit(visit(i)); err != nil {
				t.Error(err)
				return
			}
			acked.Store(int64(i + 1))
			for reads.Load() < int64(i) {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.AddVisit("churn", VenueName(3), TimeAt(0), TimeAt(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for k := 0; k < writes; reads.Add(1) {
		k = int(acked.Load())
		entity, _, _, _ := visit(k - 1)
		got, err := db.VisitsOf(entity)
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.exampleSequences(got)
		if err != nil {
			t.Fatal(err)
		}
		for i := (k - 1) / run * run; i < k; i++ {
			_, venue, start, _ := visit(i)
			if !q.Contains(q.Levels(), trace.MakeCell(trace.Time(i), db.ix.BaseUnit(db.venues[venue]))) {
				t.Fatalf("VisitsOf(%s) lost visit %d (%s at %v), acknowledged before the call", entity, i, venue, start)
			}
		}
		if _, _, err := db.TopKByExample(got, 1); err != nil {
			t.Fatalf("TopKByExample of VisitsOf(%s): %v", entity, err)
		}
	}
}

// TestVisitsOfConcurrentFoldAtPublish pins the interleaving the stress test
// above can only hope for: a VisitsOf or AllVisits that starts while a fold
// waits to publish.
// Holding buildMu parks a write after it stored its visit; holding the
// ingest lock shared, then releasing buildMu, lets the write's fold capture
// and stage but parks its publish, and a read arriving behind the waiting
// publish is parked too; once the lock is released, the publish swaps the
// snapshot and drops the folded visit before the read proceeds, so the read
// must take the snapshot under the lock, not before it. (A read that arrives
// late instead sees the published state, so the test cannot fail
// spuriously.)
func TestVisitsOfConcurrentFoldAtPublish(t *testing.T) {
	db, err := NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddVisit("probe", VenueName(1), TimeAt(0), TimeAt(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	db.buildMu.Lock()
	folded := make(chan error, 1)
	go func() { folded <- db.AddVisit("probe", VenueName(2), TimeAt(5), TimeAt(6)) }()
	for pendingCount(db) == 0 {
		runtime.Gosched()
	}
	db.mu.RLock()
	db.buildMu.Unlock()
	// The fold stages, then waits to publish: from then on the lock refuses
	// new readers.
	for db.mu.TryRLock() {
		db.mu.RUnlock()
		runtime.Gosched()
	}
	reads := make(chan []Visit, 2)
	go func() {
		got, err := db.VisitsOf("probe")
		if err != nil {
			t.Error(err)
		}
		reads <- got
	}()
	go func() {
		var got []Visit
		for _, v := range db.AllVisits() {
			got = append(got, Visit{Venue: v.Venue, Start: v.Start, End: v.End})
		}
		reads <- got
	}()
	// No event marks a read parked on the lock; the pause only lets them
	// get there; a read that is late sees the published state.
	time.Sleep(20 * time.Millisecond)
	db.mu.RUnlock()
	if err := <-folded; err != nil {
		t.Fatal(err)
	}
	for range 2 {
		got := <-reads
		q, err := db.exampleSequences(got)
		if err != nil {
			t.Fatal(err)
		}
		if !q.Contains(q.Levels(), trace.MakeCell(5, db.ix.BaseUnit(db.venues[VenueName(2)]))) {
			t.Fatalf("read %+v lost the visit a concurrent fold published", got)
		}
	}
}

// TestAckMeansIndexedPastParkedBuild: a write whose view a build in flight
// missed is indexed when it returns. Holding the ingest lock shared parks
// the build's publish after its view is captured; the write stores its visit
// once the publish is through, and must then fold past it before returning.
// Run on a first build, a rebuild and an open — one over a re-ingested log
// with a pending tail, which the open folds: nothing stays pending after it.
func TestAckMeansIndexedPastParkedBuild(t *testing.T) {
	city := func() *DB {
		db, err := SyntheticCity(CityConfig{Side: 4, Entities: 20, Days: 2})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// sees reports whether a query over the one cell at venue v, hour h
	// ranks entity first.
	sees := func(db *DB, entity string, v, h int) bool {
		got, _, err := db.TopKByExample([]Visit{{Venue: VenueName(v), Start: TimeAt(h), End: TimeAt(h + 1)}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return len(got) == 1 && got[0].Entity == entity && got[0].Degree > 0
	}
	parked := func(t *testing.T, db *DB, build func() error) {
		const h = 500
		db.mu.RLock()
		built := make(chan error, 1)
		go func() { built <- build() }()
		for db.mu.TryRLock() {
			db.mu.RUnlock()
			runtime.Gosched()
		}
		wrote := make(chan error, 1)
		go func() { wrote <- db.AddVisit("late", VenueName(5), TimeAt(h), TimeAt(h+1)) }()
		// No event marks the write queued behind the publish; a write that
		// arrives later still comes after the build's view.
		time.Sleep(10 * time.Millisecond)
		db.mu.RUnlock()
		if err := <-built; err != nil {
			t.Fatal(err)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if !sees(db, "late", 5, h) {
			t.Fatal("a query after the write returned misses it")
		}
		if pendingCount(db) != 0 {
			t.Fatalf("%d entities pending after the write returned", pendingCount(db))
		}
	}
	t.Run("first build", func(t *testing.T) {
		db := city()
		parked(t, db, db.BuildIndex)
	})
	t.Run("rebuild", func(t *testing.T) {
		db := city()
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		parked(t, db, db.BuildIndex)
	})
	t.Run("open", func(t *testing.T) {
		src := city()
		var img bytes.Buffer
		if _, err := src.SaveIndex(&img); err != nil {
			t.Fatal(err)
		}
		// The same log re-ingested, plus one visit the image lacks: a
		// pending tail the open must fold.
		db := city()
		const tailHour = 300
		if err := db.AddVisit("entity-3", VenueName(7), TimeAt(tailHour), TimeAt(tailHour+1)); err != nil {
			t.Fatal(err)
		}
		parked(t, db, func() error { return db.OpenImage(img.Bytes()) })
		if !sees(db, "entity-3", 7, tailHour) {
			t.Fatal("the open dropped the pending tail")
		}
		if n := pendingCount(db); n != 0 {
			t.Fatalf("%d entities pending after the open", n)
		}
	})
}
