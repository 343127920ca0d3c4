package digitaltraces

// Restart tests over a re-ingested log: SaveIndex → re-ingest → OpenIndex
// must serve answers bit-identical to a cold rebuild, across growth since the
// save and concurrent traffic — and every way the image and the DB can
// disagree must be a descriptive error, never a silently different answer.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/secfile"
	"digitaltraces/internal/trace"
)

// restartWorld builds a city, indexes it, saves the index, and returns the
// DB, its image bytes, and its full visit log as ingested (the "record file"
// a restarted process would replay) — read before the build folds it away.
func restartWorld(t *testing.T, entities int, opts ...Option) (*DB, []byte, []VisitRecord) {
	t.Helper()
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: entities, Days: 3}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	log := db.AllVisits()
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	return db, buf.Bytes(), log
}

// freshGrid returns an empty DB shaped like restartWorld's, with the log
// re-ingested.
func freshGrid(t *testing.T, log []VisitRecord, opts ...Option) *DB {
	t.Helper()
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

// openImage serves img on db in place, as OpenIndex serves a file.
func openImage(db *DB, img []byte) error {
	return db.OpenImage(img)
}

// TestLoadIndexEquivalence: an image opened over a replayed log answers
// bit-identically to the DB that saved it, publishes generation 1, and
// reports a query-ready index with no pending dirt.
func TestLoadIndexEquivalence(t *testing.T) {
	src, snap, log := restartWorld(t, 40)
	db := freshGrid(t, log)
	if err := openImage(db, snap); err != nil {
		t.Fatalf("OpenImage: %v", err)
	}
	st := db.IndexStats()
	if st.Generation != 1 {
		t.Errorf("generation after the open = %d, want 1", st.Generation)
	}
	if pendingCount(db) != 0 {
		t.Errorf("dirty count after the open = %d, want 0", pendingCount(db))
	}
	if st.Entities != src.NumEntities() {
		t.Errorf("loaded index has %d entities, want %d", st.Entities, src.NumEntities())
	}
	if st.LastSwap.IsZero() || st.BuildTime <= 0 {
		t.Errorf("stats not stamped: %+v", st)
	}
	assertSameAnswers(t, src, db, someEntities, 5)
}

// TestLoadIndexPermutedIngest: an image resolves entities by ID, so a
// re-ingest whose entity order was permuted (every entity ID differs from
// save time) is refused by name before the DB changes — and the DB then
// builds and answers like a rebuild over the same permuted log.
func TestLoadIndexPermutedIngest(t *testing.T) {
	_, snap, log := restartWorld(t, 40)
	// Permute by reversing entity groups: each entity's own visit order is
	// preserved, but first arrival — and therefore ID assignment — is
	// reversed.
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
	if err := openImage(loaded, snap); err == nil || !strings.Contains(err.Error(), "resolve by ID") {
		t.Fatalf("open over a permuted re-ingest: want the by-ID refusal, got %v", err)
	}
	if st := loaded.IndexStats(); st.Generation != 0 || st.Mapped {
		t.Fatalf("the refused open published an index: %+v", st)
	}
	if err := loaded.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rebuilt := freshGrid(t, permuted)
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt, loaded, someEntities, 5)
}

// TestLoadIndexNewerVisitsGoDirty: entities whose logs grew past the save
// are folded by the open itself — nothing stays pending and no query folds —
// ending bit-identical to a cold rebuild over the grown log.
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
	if err := openImage(db, snap); err != nil {
		t.Fatalf("open with grown log: %v", err)
	}
	st := db.IndexStats()
	if pendingCount(db) != 0 {
		t.Errorf("dirty count after load = %d, want 0 (entity-3, entity-17 and newcomer folded by the open)", pendingCount(db))
	}
	// The published snapshot is the saved index plus the newcomer.
	if st.Entities != 41 {
		t.Errorf("opened index has %d entities, want the 40 saved ones and the newcomer", st.Entities)
	}

	rebuilt := freshGrid(t, db.AllVisits())
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// The answers match the full rebuild including the new visits, and the
	// queries published nothing.
	assertSameAnswers(t, rebuilt, db, append([]string{"newcomer"}, someEntities...), 5)
	if g := db.IndexStats().Generation; g != 1 {
		t.Errorf("generation %d after the queries, want the open's 1", g)
	}
}

// TestLoadIndexStaleEntitySkipped: an entity stamped with a covered count
// other than what it ingested is never counted clean: the open unions its
// whole log into the stored sequences instead of serving the save-time state
// as current.
func TestLoadIndexStaleEntitySkipped(t *testing.T) {
	src, _, log := restartWorld(t, 30)
	s := src.snap.Load()
	var buf bytes.Buffer
	epoch, _, _ := src.epochInfo()
	meta := core.SnapshotMeta{TimeUnit: src.unit, EpochNanos: epoch.UnixNano(), MeasureU: src.measureU, MeasureV: src.measureV}
	if _, err := s.post.WriteSnapshot(&buf, meta, s.store, func(e trace.EntityID) (string, uint32, uint32) {
		if s.byID[e] == "entity-5" {
			return s.byID[e], uint32(e), src.ingested[e] + 1
		}
		return s.byID[e], uint32(e), src.ingested[e]
	}); err != nil {
		t.Fatal(err)
	}
	db := freshGrid(t, log)
	if err := openImage(db, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.Entities != 30 || pendingCount(db) != 0 {
		t.Fatalf("after the open: %d entities, %d dirty — want 30 and 0 (entity-5 refolded by the open)", st.Entities, pendingCount(db))
	}
	assertSameAnswers(t, src, db, append([]string{"entity-5"}, someEntities...), 5)
}

// TestLoadIndexValidationErrors: every detectable mismatch between an image
// and a re-ingested DB is an open-time error naming the problem.
func TestLoadIndexValidationErrors(t *testing.T) {
	_, snap, log := restartWorld(t, 30)

	cases := []struct {
		name string
		db   func(t *testing.T) *DB
		want string
	}{
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
			err := openImage(tc.db(t), snap)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}

	t.Run("truncated snapshot", func(t *testing.T) {
		err := openImage(freshGrid(t, log), snap[:len(snap)/2])
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got: %v", err)
		}
	})
}

// TestLoadIndexConcurrentTraffic (-race): OpenImage races ingest and
// queries. Over a re-ingested log the open succeeds, queries never error,
// and the DB converges to a cold rebuild over the final log. Into an empty
// DB whose writers register new entities meanwhile, the open either succeeds
// and converges the same way, or is refused by name — "retry" when the
// registry filled while the open ran, "not in the registry" when it already
// had — with nothing of the image published.
func TestLoadIndexConcurrentTraffic(t *testing.T) {
	_, snap, log := restartWorld(t, 40)
	converged := func(t *testing.T, db *DB) {
		t.Helper()
		rebuilt := freshGrid(t, db.AllVisits())
		if err := rebuilt.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, rebuilt, db, someEntities, 5)
	}
	// race runs writers — name(g, i) picks the entity of writer g's i-th
	// visit — and, with query set, a reader, until open returns.
	race := func(db *DB, name func(g, i int) string, query bool, open func() error) error {
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
					h := i % 20
					if err := db.AddVisit(name(g, i), VenueName(h%db.NumVenues()), TimeAt(h), TimeAt(h+1)); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}(g)
		}
		if query {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Before the open publishes anything a query may block
					// briefly behind buildMu and then answer; it must never
					// error.
					if _, _, err := db.TopK("entity-1", 3); err != nil {
						t.Errorf("query during the open: %v", err)
						return
					}
				}
			}()
		}
		err := open()
		close(stop)
		wg.Wait()
		return err
	}

	db := freshGrid(t, log)
	if err := race(db, func(g, i int) string { return fmt.Sprintf("entity-%d", (g*13+i)%40) }, true, func() error { return openImage(db, snap) }); err != nil {
		t.Fatalf("open under traffic: %v", err)
	}
	converged(t, db)

	empty, err := NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = race(empty, func(g, i int) string { return fmt.Sprintf("writer%d-%d", g, i%7) }, false, func() error { return openImage(empty, snap) })
	t.Logf("open into an empty DB racing writers: %v", err)
	switch {
	case err == nil:
		converged(t, empty)
	case strings.Contains(err.Error(), "retry") || strings.Contains(err.Error(), "not in the registry"):
		if _, verr := empty.VisitsOf("entity-0"); verr == nil {
			t.Error("the refused open registered the image's entities")
		}
		if st := empty.IndexStats(); st.Generation != 0 || st.Mapped {
			t.Errorf("the refused open published an index: %+v", st)
		}
	default:
		t.Fatalf("open racing writers on an empty DB: %v", err)
	}
}

// TestSaveIndexFoldsDirtFirst: SaveIndex covers visits ingested since the
// last build, so an image is never staler than the data at save time.
func TestSaveIndexFoldsDirtFirst(t *testing.T) {
	db, _, log := restartWorld(t, 30)
	added := VisitRecord{Entity: "entity-2", Venue: VenueName(1), Start: TimeAt(1), End: TimeAt(4)}
	if _, err := db.AddVisits([]VisitRecord{added}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if pendingCount(db) != 0 {
		t.Errorf("SaveIndex left %d dirty entities unfolded", pendingCount(db))
	}
	fresh := freshGrid(t, append(log, added))
	if err := openImage(fresh, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if pendingCount(fresh) != 0 {
		t.Errorf("opened DB has %d dirty entities, want the post-ingest visit covered", pendingCount(fresh))
	}
	assertSameAnswers(t, db, fresh, someEntities, 5)
	// The image alone, in an empty DB, is the same index.
	empty := emptyGrid(t)
	if err := openImage(empty, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, db, empty, someEntities, 5)
}

// imageCounts decodes an image's covered visit count per entity name.
func imageCounts(t *testing.T, db *DB, img []byte) map[string]uint32 {
	t.Helper()
	sr, err := secfile.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(sr, db.ix)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint32, len(snap.Entities))
	for _, se := range snap.Entities {
		out[se.Name] = se.Folded
	}
	return out
}

// assertOpenFoldedNothing: the open just made on db found every entity's
// visits covered by the image — nothing pending, and no sequence read back
// from the image to fold into. An image recording too small a covered count
// (a loader that stamps none) leaves nothing pending either, but only after
// the open folds the whole log over the image's sequences.
func assertOpenFoldedNothing(t *testing.T, db *DB) {
	t.Helper()
	if n := pendingCount(db); n != 0 {
		t.Errorf("%d entities pending after the open, want 0", n)
	}
	if st := db.IndexStats(); st.Decoded != 0 {
		t.Errorf("the open decoded %d image entities to fold the log into them, want 0 (the image's covered counts are short)", st.Decoded)
	}
}

// TestResavedImageKeepsCoveredCounts: an image opened in an empty DB and
// saved again records the same covered counts as the original, so it opens
// over the re-ingested log with nothing to fold, like the original does —
// for an image saved by a built DB and for one saved by a bulk-loaded DB,
// which keeps no visit log to count.
func TestResavedImageKeepsCoveredCounts(t *testing.T) {
	src, img, log := restartWorld(t, 40)
	path := bulkLog(t, 30, 10, 3)
	bulk, _, err := BulkLoadRecordFile(path, 4, 4, BulkConfig{PageSize: 256, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	var bulkImg bytes.Buffer
	if _, err := bulk.SaveIndex(&bulkImg); err != nil {
		t.Fatal(err)
	}
	mem, err := LoadRecordFile(path, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		src      *DB
		img      []byte
		log      []VisitRecord
		entities []string
	}{
		{"built", src, img, log, someEntities},
		{"bulk", bulk, bulkImg.Bytes(), mem.AllVisits(), []string{"entity-3", "entity-80", "entity-206"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opened := emptyGrid(t)
			defer opened.Close()
			if err := openImage(opened, tc.img); err != nil {
				t.Fatal(err)
			}
			var resaved bytes.Buffer
			if _, err := opened.SaveIndex(&resaved); err != nil {
				t.Fatal(err)
			}
			want, got := imageCounts(t, tc.src, tc.img), imageCounts(t, tc.src, resaved.Bytes())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("re-saved image covers %v, the original %v", got, want)
			}
			db := freshGrid(t, tc.log)
			if err := openImage(db, resaved.Bytes()); err != nil {
				t.Fatal(err)
			}
			assertOpenFoldedNothing(t, db)
			assertSameAnswers(t, tc.src, db, tc.entities, 5)
		})
	}
}

// TestOpenKeepsFoldedVisits: an image opened over a DB that had already
// folded visits the image does not cover serves the union of both — no
// visit acknowledged before the open is lost, with or without the image's
// count for the entity — and leaves nothing pending.
func TestOpenKeepsFoldedVisits(t *testing.T) {
	_, img, log := restartWorld(t, 40)
	folded := []VisitRecord{
		{Entity: "entity-3", Venue: VenueName(5), Start: TimeAt(60), End: TimeAt(63)},
		{Entity: "newcomer", Venue: VenueName(5), Start: TimeAt(61), End: TimeAt(62)},
	}
	pending := []VisitRecord{
		{Entity: "entity-3", Venue: VenueName(7), Start: TimeAt(2), End: TimeAt(5)},
		{Entity: "entity-17", Venue: VenueName(5), Start: TimeAt(60), End: TimeAt(62)},
	}
	db := freshGrid(t, append(slices.Clone(log), folded...))
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVisits(pending); err != nil {
		t.Fatal(err)
	}
	if err := openImage(db, img); err != nil {
		t.Fatal(err)
	}
	if n := pendingCount(db); n != 0 {
		t.Errorf("%d entities pending after the open, want 0", n)
	}
	rebuilt := freshGrid(t, slices.Concat(log, folded, pending))
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt, db, append([]string{"newcomer", "entity-17"}, someEntities...), 5)
}

// TestOpenImageExtendsRegistry: an image saved after a write added an entity
// opens over the record file that lacks it — the restart of a server that
// took new entities after boot. The image's entities past the registry take
// the next IDs, with their covered counts, so the open folds nothing and
// answers like the DB that saved it. An unknown entity whose ID the registry
// has already given away is refused.
func TestOpenImageExtendsRegistry(t *testing.T) {
	src, _, log := restartWorld(t, 30)
	added := VisitRecord{Entity: "newcomer", Venue: VenueName(3), Start: TimeAt(5), End: TimeAt(9)}
	if _, err := src.AddVisits([]VisitRecord{added}); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := src.SaveIndex(&img); err != nil {
		t.Fatal(err)
	}
	db := freshGrid(t, log)
	if err := openImage(db, img.Bytes()); err != nil {
		t.Fatalf("open of an image that adds an entity: %v", err)
	}
	if n := db.NumEntities(); n != src.NumEntities() {
		t.Errorf("%d entities after the open, want %d", n, src.NumEntities())
	}
	assertOpenFoldedNothing(t, db)
	assertSameAnswers(t, src, db, append([]string{"newcomer"}, someEntities...), 5)

	taken := freshGrid(t, append(slices.Clone(log), VisitRecord{Entity: "other", Venue: VenueName(1), Start: TimeAt(2), End: TimeAt(4)}))
	if err := openImage(taken, img.Bytes()); err == nil || !strings.Contains(err.Error(), "not in the registry") {
		t.Fatalf("open over a registry that gave the newcomer's ID away: want a refusal naming the registry, got %v", err)
	}
}
