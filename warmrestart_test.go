package digitaltraces

// Warm-restart tests: SaveIndex → re-ingest → LoadIndex must serve answers
// bit-identical to a cold rebuild, across ingest-order permutations, growth
// since the save, and concurrent traffic — and every way the snapshot and
// the log can disagree must be a descriptive error, never a silently
// different answer.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/trace"
)

// restartWorld builds a city, indexes it, saves the index, and returns the
// DB, its snapshot bytes, and its full visit log (the "record file" a
// restarted process would replay).
func restartWorld(t *testing.T, entities int, opts ...Option) (*DB, []byte, []VisitRecord) {
	t.Helper()
	opts = append([]Option{WithHashFunctions(32)}, opts...)
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: entities, Days: 3}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	return db, buf.Bytes(), db.AllVisits()
}

// freshGrid returns an empty DB shaped like restartWorld's, with the log
// re-ingested.
func freshGrid(t *testing.T, log []VisitRecord, opts ...Option) *DB {
	t.Helper()
	opts = append([]Option{WithHashFunctions(32)}, opts...)
	db, err := NewGridDB(4, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.AddVisits(log); err != nil || n != len(log) {
		t.Fatalf("re-ingest: %d of %d visits, err %v", n, len(log), err)
	}
	return db
}

// assertSameAnswers compares TopK over a sample of entities plus one
// TopKBatch, requiring bit-identical matches.
func assertSameAnswers(t *testing.T, want, got Engine, entities []string, k int) {
	t.Helper()
	for _, q := range entities {
		w, _, err := want.TopK(q, k)
		if err != nil {
			t.Fatalf("reference TopK(%s): %v", q, err)
		}
		g, _, err := got.TopK(q, k)
		if err != nil {
			t.Fatalf("loaded TopK(%s): %v", q, err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("TopK(%s) diverges:\n  loaded:  %v\n  rebuilt: %v", q, g, w)
		}
	}
	wb, _, err := want.TopKBatch(entities, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	gb, _, err := got.TopKBatch(entities, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gb, wb) {
		t.Fatalf("TopKBatch diverges:\n  loaded:  %v\n  rebuilt: %v", gb, wb)
	}
}

var someEntities = []string{"entity-0", "entity-3", "entity-11", "entity-17", "entity-29"}

// TestLoadIndexEquivalence: a LoadIndex-ed DB over a replayed log answers
// bit-identically to the DB that saved the snapshot, publishes generation 1,
// and reports a query-ready index with no pending dirt.
func TestLoadIndexEquivalence(t *testing.T) {
	src, snap, log := restartWorld(t, 40)
	db := freshGrid(t, log)
	if err := db.LoadIndex(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	st := db.IndexStats()
	if st.Generation != 1 {
		t.Errorf("generation after LoadIndex = %d, want 1", st.Generation)
	}
	if st.DirtyCount != 0 {
		t.Errorf("dirty count after LoadIndex = %d, want 0", st.DirtyCount)
	}
	if st.Entities != src.NumEntities() {
		t.Errorf("loaded index has %d entities, want %d", st.Entities, src.NumEntities())
	}
	if st.LastSwap.IsZero() || st.BuildTime <= 0 {
		t.Errorf("stats not stamped: %+v", st)
	}
	assertSameAnswers(t, src, db, someEntities, 5)
}

// TestLoadIndexPermutedIngest: the acceptance-criteria scenario — a
// snapshot loaded against a re-ingest whose entity order was permuted (so
// every entity ID differs from save time) either answers identically to a
// rebuilt DB over the same permuted log, or errors; here it must answer.
func TestLoadIndexPermutedIngest(t *testing.T) {
	_, snap, log := restartWorld(t, 40)
	// Permute by reversing entity groups: each entity's own visit order is
	// preserved (the replay contract), but first arrival — and therefore ID
	// assignment — is reversed.
	var groups [][]VisitRecord
	seen := map[string]int{}
	for _, v := range log {
		gi, ok := seen[v.Entity]
		if !ok {
			gi = len(groups)
			seen[v.Entity] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], v)
	}
	var permuted []VisitRecord
	for i := len(groups) - 1; i >= 0; i-- {
		permuted = append(permuted, groups[i]...)
	}

	loaded := freshGrid(t, permuted)
	if err := loaded.LoadIndex(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadIndex over permuted ingest: %v", err)
	}
	rebuilt := freshGrid(t, permuted)
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt, loaded, someEntities, 5)
}

// TestLoadIndexNewerVisitsGoDirty: entities whose logs grew past the save
// serve the covered prefix first, land in the dirty set, and fold to full
// freshness on the next query — ending bit-identical to a cold rebuild over
// the grown log.
func TestLoadIndexNewerVisitsGoDirty(t *testing.T) {
	_, snap, log := restartWorld(t, 40)
	db := freshGrid(t, log)
	// Grow two entities and add one brand-new one before loading.
	for h := 0; h < 6; h += 2 {
		if err := db.AddVisit("entity-3", VenueName(h), TimeAt(h), TimeAt(h+1)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddVisit("entity-17", VenueName(h+1), TimeAt(h), TimeAt(h+2)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddVisit("newcomer", VenueName(h), TimeAt(h), TimeAt(h+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadIndex(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadIndex with grown log: %v", err)
	}
	st := db.IndexStats()
	if st.DirtyCount != 3 {
		t.Errorf("dirty count after load = %d, want 3 (entity-3, entity-17, newcomer)", st.DirtyCount)
	}
	// The published snapshot covers the saved prefix only.
	if st.Entities != 40 {
		t.Errorf("loaded tree has %d entities, want the 40 saved ones", st.Entities)
	}

	rebuilt := freshGrid(t, db.AllVisits())
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Queries transparently fold the dirt (lazy-freshness contract), so the
	// answers must match the full rebuild including the new visits.
	assertSameAnswers(t, rebuilt, db, append([]string{"newcomer"}, someEntities...), 5)
	if g := db.IndexStats().Generation; g < 2 {
		t.Errorf("generation %d after the folding query, want ≥ 2", g)
	}
}

// TestLoadIndexStaleEntitySkipped: an entity stamped FoldedUnknown (dirty
// while the save ran) is left out of the published tree, marked dirty, and
// re-signed by the next fold instead of being served with a stale signature.
func TestLoadIndexStaleEntitySkipped(t *testing.T) {
	src, _, log := restartWorld(t, 30)
	s := src.snap.Load()
	var buf bytes.Buffer
	epoch, _, _ := src.epochInfo()
	meta := core.SnapshotMeta{TimeUnit: src.unit, EpochNanos: epoch.UnixNano(), MeasureU: src.measureU, MeasureV: src.measureV}
	if _, err := s.tree.WriteSnapshot(&buf, meta, nil, func(e trace.EntityID) (string, uint32) {
		if s.byID[e] == "entity-5" {
			return s.byID[e], core.FoldedUnknown
		}
		return s.byID[e], uint32(len(src.visits[e]))
	}); err != nil {
		t.Fatal(err)
	}
	db := freshGrid(t, log)
	if err := db.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.Entities != 29 || st.DirtyCount != 1 {
		t.Fatalf("after load: %d entities, %d dirty — want 29 and 1 (entity-5 deferred)", st.Entities, st.DirtyCount)
	}
	assertSameAnswers(t, src, db, append([]string{"entity-5"}, someEntities...), 5)
}

// TestLoadIndexValidationErrors: every detectable mismatch between snapshot
// and DB is a load-time error naming the problem.
func TestLoadIndexValidationErrors(t *testing.T) {
	_, snap, log := restartWorld(t, 30)

	cases := []struct {
		name string
		db   func(t *testing.T) *DB
		want string
	}{
		{"empty DB", func(t *testing.T) *DB {
			db, err := NewGridDB(4, 0, WithHashFunctions(32))
			if err != nil {
				t.Fatal(err)
			}
			return db
		}, "re-ingest"},
		{"hash-function mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithHashFunctions(64))
		}, "hash functions"},
		{"seed mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithSeed(99))
		}, "seed"},
		{"time-unit mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithTimeUnit(30*time.Minute))
		}, "unit"},
		{"epoch mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithEpoch(TimeAt(0).Add(-24*time.Hour)))
		}, "epoch"},
		{"measure mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithPaperMeasure(3, 1))
		}, "measure"},
		{"jaccard mismatch", func(t *testing.T) *DB {
			return freshGrid(t, log, WithJaccardMeasure())
		}, "jaccard"},
		{"missing entity", func(t *testing.T) *DB {
			var trimmed []VisitRecord
			for _, v := range log {
				if v.Entity != "entity-5" {
					trimmed = append(trimmed, v)
				}
			}
			return freshGrid(t, trimmed)
		}, `"entity-5"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.db(t).LoadIndex(bytes.NewReader(snap))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}

	t.Run("log behind snapshot", func(t *testing.T) {
		// Drop entity-5's last visit: its signature covers more than the log.
		last := -1
		for i, v := range log {
			if v.Entity == "entity-5" {
				last = i
			}
		}
		trimmed := append(append([]VisitRecord{}, log[:last]...), log[last+1:]...)
		err := freshGrid(t, trimmed).LoadIndex(bytes.NewReader(snap))
		if err == nil || !strings.Contains(err.Error(), "behind the snapshot") {
			t.Fatalf("want log-behind error, got: %v", err)
		}
	})

	t.Run("truncated snapshot", func(t *testing.T) {
		err := freshGrid(t, log).LoadIndex(bytes.NewReader(snap[:len(snap)/2]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got: %v", err)
		}
	})
}

// TestLoadIndexConcurrentTraffic (-race): LoadIndex races ingest and
// queries; afterwards the DB must converge to the same answers as a cold
// rebuild over the final log.
func TestLoadIndexConcurrentTraffic(t *testing.T) {
	_, snap, log := restartWorld(t, 40)
	db := freshGrid(t, log)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("entity-%d", (g*13+i)%40)
				h := i % 20
				if err := db.AddVisit(name, VenueName(h%db.NumVenues()), TimeAt(h), TimeAt(h+1)); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Before the load publishes anything a query may block briefly
			// behind buildMu and then answer; it must never error.
			if _, _, err := db.TopK("entity-1", 3); err != nil {
				t.Errorf("query during load: %v", err)
				return
			}
		}
	}()
	if err := db.LoadIndex(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadIndex under traffic: %v", err)
	}
	close(stop)
	wg.Wait()

	rebuilt := freshGrid(t, db.AllVisits())
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt, db, someEntities, 5)
}

// TestSaveIndexFoldsDirtFirst: SaveIndex covers visits ingested since the
// last build, so a snapshot is never staler than the data at save time.
func TestSaveIndexFoldsDirtFirst(t *testing.T) {
	db, _, _ := restartWorld(t, 30)
	if err := db.AddVisit("entity-2", VenueName(1), TimeAt(1), TimeAt(4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.DirtyCount != 0 {
		t.Errorf("SaveIndex left %d dirty entities unfolded", st.DirtyCount)
	}
	fresh := freshGrid(t, db.AllVisits())
	if err := fresh.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := fresh.IndexStats(); st.DirtyCount != 0 {
		t.Errorf("loaded DB has %d dirty entities, want the post-ingest visit covered", st.DirtyCount)
	}
	assertSameAnswers(t, db, fresh, someEntities, 5)
}
