package digitaltraces

// Mapped-snapshot tests: SaveMappedIndex → LoadMappedIndex must serve answers
// bit-identical to the heap-decoded DB that saved the file — with no visit
// re-ingest at all — and every way the file can be truncated or corrupted
// must be a descriptive open-time error, never a SIGBUS at query time.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
)

// mappedWorld builds a city, indexes it, and saves a mapped snapshot file,
// returning the source DB, the file path and the full visit log.
func mappedWorld(t *testing.T, entities int, opts ...Option) (*DB, string, []VisitRecord) {
	t.Helper()
	opts = append([]Option{WithHashFunctions(32)}, opts...)
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: entities, Days: 3}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.map")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveMappedIndex(f); err != nil {
		t.Fatalf("SaveMappedIndex: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return db, path, db.AllVisits()
}

// emptyGrid returns a DB shaped like mappedWorld's with nothing ingested.
func emptyGrid(t *testing.T, opts ...Option) *DB {
	t.Helper()
	opts = append([]Option{WithHashFunctions(32)}, opts...)
	db, err := NewGridDB(4, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLoadMappedIndexNoIngest: the headline restart path — a fresh DB with an
// EMPTY visit log serves bit-identical answers straight off the mapped file,
// query-ready at generation 1 with nothing dirty, and reports pool traffic.
func TestLoadMappedIndexNoIngest(t *testing.T) {
	src, path, _ := mappedWorld(t, 40)
	db := emptyGrid(t)
	defer db.Close()
	if err := db.LoadMappedIndex(path); err != nil {
		t.Fatalf("LoadMappedIndex: %v", err)
	}
	st := db.IndexStats()
	if st.Generation != 1 {
		t.Errorf("generation after mapped load = %d, want 1", st.Generation)
	}
	if st.DirtyCount != 0 {
		t.Errorf("dirty count after mapped load = %d, want 0", st.DirtyCount)
	}
	if st.Entities != src.NumEntities() {
		t.Errorf("mapped index has %d entities, want %d", st.Entities, src.NumEntities())
	}
	if !st.Mapped {
		t.Error("IndexStats.Mapped = false on a mapped snapshot")
	}
	if db.NumEntities() != src.NumEntities() {
		t.Errorf("registry adopted %d names, want %d", db.NumEntities(), src.NumEntities())
	}
	assertSameAnswers(t, src, db, someEntities, 5)
	if st = db.IndexStats(); st.PoolHits+st.PoolMisses == 0 {
		t.Error("queries reported no buffer-pool traffic")
	}
}

// TestLoadMappedIndexReingestedLog: a mapped load over a re-ingested log (the
// -in + -index-mmap boot) resolves IDs, retires all dirt, answers identically
// — and SaveIndex is refused in union-fold mode while SaveMappedIndex
// round-trips.
func TestLoadMappedIndexReingestedLog(t *testing.T) {
	src, path, log := mappedWorld(t, 40)
	db := freshGrid(t, log)
	defer db.Close()
	if err := db.LoadMappedIndex(path); err != nil {
		t.Fatalf("LoadMappedIndex over re-ingested log: %v", err)
	}
	if st := db.IndexStats(); st.DirtyCount != 0 {
		t.Errorf("dirty count = %d, want 0 (log matches the snapshot)", st.DirtyCount)
	}
	assertSameAnswers(t, src, db, someEntities, 5)

	if _, err := db.SaveIndex(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "SaveMappedIndex") {
		t.Errorf("SaveIndex on a mapped DB: want refusal naming SaveMappedIndex, got %v", err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.map")
	f, err := os.Create(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.SaveMappedIndex(f); err != nil {
		t.Fatalf("SaveMappedIndex from a mapped DB: %v", err)
	}
	f.Close()
	again := emptyGrid(t)
	defer again.Close()
	if err := again.LoadMappedIndex(resaved); err != nil {
		t.Fatalf("reloading the re-saved mapped index: %v", err)
	}
	assertSameAnswers(t, src, again, someEntities, 5)
}

// TestMappedUnionFoldRefresh: visits ingested after a no-ingest mapped load
// are only a suffix of each entity's history, so refreshes must union them
// into the mapped sequences — ending bit-identical to a cold rebuild over
// the full grown log. Exercises both the within-horizon incremental fold and
// the beyond-horizon full union rebuild.
func TestMappedUnionFoldRefresh(t *testing.T) {
	_, path, log := mappedWorld(t, 40)
	db := emptyGrid(t)
	defer db.Close()
	if err := db.LoadMappedIndex(path); err != nil {
		t.Fatal(err)
	}
	grow := func(hmax int) []VisitRecord {
		var added []VisitRecord
		for h := 0; h < hmax; h += 2 {
			added = append(added,
				VisitRecord{Entity: "entity-3", Venue: VenueName(h % db.NumVenues()), Start: TimeAt(h), End: TimeAt(h + 1)},
				VisitRecord{Entity: "newcomer", Venue: VenueName((h + 1) % db.NumVenues()), Start: TimeAt(h), End: TimeAt(h + 2)},
			)
		}
		return added
	}

	// Within-horizon growth: the next query union-folds it.
	added := grow(6)
	if _, err := db.AddVisits(added); err != nil {
		t.Fatal(err)
	}
	if st := db.IndexStats(); st.DirtyCount != 2 {
		t.Errorf("dirty count after growth = %d, want 2", st.DirtyCount)
	}
	rebuilt := freshGrid(t, append(append([]VisitRecord{}, log...), added...))
	if err := rebuilt.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt, db, append([]string{"newcomer"}, someEntities...), 5)
	if st := db.IndexStats(); !st.Mapped {
		t.Error("union-fold refresh dropped the pool from the snapshot lineage")
	}

	// Beyond-horizon growth forces the full union rebuild (new hash family).
	horizon := db.snap.Load().horizon
	far := int(horizon) + 5
	beyond := VisitRecord{Entity: "entity-7", Venue: VenueName(0), Start: TimeAt(far), End: TimeAt(far + 2)}
	if _, err := db.AddVisits([]VisitRecord{beyond}); err != nil {
		t.Fatal(err)
	}
	rebuilt2 := freshGrid(t, append(append(append([]VisitRecord{}, log...), added...), beyond))
	if err := rebuilt2.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, rebuilt2, db, append([]string{"newcomer", "entity-7"}, someEntities...), 5)
}

// TestMappedIndexGainsCellIndexAtBuild: the level-1 cell index a mapped DB
// serves with is gained at the *saver's* build — the file carries it — so
// right after LoadMappedIndex — no BuildIndex, no sequence read — the mapped
// DB is the DB that saved it: same answers, the same entities
// skipped per query (so the search is posting-driven, ZeroSkipped > 0), the
// same index memory; and it stays that DB through a refresh and a rebuild.
func TestMappedIndexGainsCellIndexAtBuild(t *testing.T) {
	// A sparse world: everyone is somewhere else in time, so most of what a
	// search reaches shares nothing with the query.
	var log []VisitRecord
	var names []string
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("p%02d", i)
		names = append(names, name)
		h := 3 * (i / 2) // pairs share an hour
		log = append(log, VisitRecord{Entity: name, Venue: VenueName(i % 16), Start: TimeAt(h), End: TimeAt(h + 2)},
			VisitRecord{Entity: name, Venue: VenueName(i / 2 % 16), Start: TimeAt(h + 1), End: TimeAt(h + 2)})
	}
	src := freshGrid(t, log)
	if err := src.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.map")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.SaveMappedIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db := emptyGrid(t)
	defer db.Close()
	if err := db.LoadMappedIndex(path); err != nil {
		t.Fatal(err)
	}
	requireSameIndex := func(stage string) {
		t.Helper()
		assertSameAnswers(t, src, db, names, 3)
		zero := 0
		for _, name := range names {
			_, want, err := src.TopK(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := db.TopK(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			if got.ZeroSkipped+got.BoundSkipped != want.ZeroSkipped+want.BoundSkipped || got.Checked != want.Checked {
				t.Errorf("%s, TopK(%s): mapped index checked %d and skipped %d+%d, the saver %d and %d+%d", stage, name,
					got.Checked, got.ZeroSkipped, got.BoundSkipped, want.Checked, want.ZeroSkipped, want.BoundSkipped)
			}
			zero += got.ZeroSkipped
		}
		if zero == 0 {
			t.Errorf("%s: the mapped index skipped no entity as a provable zero — its searches are not posting-driven", stage)
		}
		if got, want := db.IndexStats().MemoryBytes, src.IndexStats().MemoryBytes; got != want {
			t.Errorf("%s: mapped index reports %d bytes, the saver %d", stage, got, want)
		}
	}
	requireSameIndex("after the load")
	grown := VisitRecord{Entity: "p03", Venue: VenueName(9), Start: TimeAt(40), End: TimeAt(41)}
	for _, e := range []*DB{src, db} {
		if _, err := e.AddVisits([]VisitRecord{grown}); err != nil {
			t.Fatal(err)
		}
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameIndex("after a refresh")
	for _, e := range []*DB{src, db} {
		if err := e.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameIndex("after a rebuild")
}

// TestOneFileLoadsBothWays: a file saved with its sequence section loads by
// name over the re-ingested log (LoadIndex stops reading before the
// sequences) and in place on an empty DB (LoadMappedIndex), both bit-identical
// to the saver; a file saved without one loads only the first way — the
// second refuses it by name.
func TestOneFileLoadsBothWays(t *testing.T) {
	src, path, log := mappedWorld(t, 40)
	withSeqs, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap := freshGrid(t, log)
	if err := heap.LoadIndex(bytes.NewReader(withSeqs)); err != nil {
		t.Fatalf("LoadIndex of a file that carries sequences: %v", err)
	}
	if st := heap.IndexStats(); st.DirtyCount != 0 || st.Mapped {
		t.Errorf("after LoadIndex: %d dirty, mapped %t — want a clean heap-served index", st.DirtyCount, st.Mapped)
	}
	mapped := emptyGrid(t)
	defer mapped.Close()
	if err := mapped.LoadMappedIndex(path); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, src, heap, someEntities, 5)
	assertSameAnswers(t, src, mapped, someEntities, 5)

	var without bytes.Buffer
	if _, err := src.SaveIndex(&without); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "index.snap")
	if err := os.WriteFile(bare, without.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := emptyGrid(t)
	defer fresh.Close()
	err = fresh.LoadMappedIndex(bare)
	if err == nil || !strings.Contains(err.Error(), "carries no sequence section — load it with LoadIndex over a re-ingested log") {
		t.Fatalf("LoadMappedIndex of a SaveIndex file: want the named refusal, got: %v", err)
	}
	if fresh.NumEntities() != 0 || fresh.IndexStats().Generation != 0 {
		t.Error("the refused file left entities or an index behind")
	}
}

// TestRefusedMappedLoadLeavesDBUntouched: every check runs before the first
// write, so a refused LoadMappedIndex — scalar mismatch, an entity table that
// cannot seed a registry (IDs not dense, a name twice) — leaves no epoch, no
// names and no index behind: the DB then ingests, builds and answers like one
// that never saw the file, and a good file still loads.
func TestRefusedMappedLoadLeavesDBUntouched(t *testing.T) {
	// No grid convention here: the DBs start without an epoch, so a load that
	// adopted the file's before refusing it would show.
	newDB := func(opts ...Option) *DB {
		ix, err := spindex.NewGrid(spindex.GridConfig{Side: 4, Levels: 4, WidthExp: 2, DensityExp: 2})
		if err != nil {
			t.Fatal(err)
		}
		venues := map[string]spindex.BaseID{}
		for b := 0; b < ix.NumBase(); b++ {
			venues[VenueName(b)] = spindex.BaseID(b)
		}
		db, err := newDB(ix, venues, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	day := 24 * time.Hour
	visits := func(base time.Time) (log []VisitRecord) {
		for i := 0; i < 12; i++ {
			log = append(log, VisitRecord{Entity: fmt.Sprintf("e%d", i), Venue: VenueName(i % 5), Start: base.Add(time.Duration(i%4) * time.Hour), End: base.Add(time.Duration(i%4+2) * time.Hour)})
		}
		return log
	}
	saver := newDB(WithHashFunctions(32))
	if _, err := saver.AddVisits(visits(TimeAt(0).Add(1000 * day))); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := saver.SaveMappedIndex(&img); err != nil {
		t.Fatal(err)
	}
	good := img.Bytes()
	sr, err := secfile.NewReaderAt(bytes.NewReader(good), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	ents := sr.Secs[2]
	const rec = 32 + 12*4
	write := func(b []byte) string {
		p := filepath.Join(t.TempDir(), "index.map")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mutated := func(mutate func(b []byte)) string {
		b := append([]byte(nil), good...)
		mutate(b)
		return write(b)
	}
	cases := []struct {
		name string
		path string
		opts []Option
		want string
	}{
		{"scalar mismatch", write(good), []Option{WithHashFunctions(16)}, "hash functions"},
		{"IDs not dense", mutated(func(b []byte) {
			// Swap the first two records: still distinct IDs, no longer 0, 1, 2 …
			x, y := b[ents.Off:ents.Off+rec], b[ents.Off+rec:ents.Off+2*rec]
			for i := range x {
				x[i], y[i] = y[i], x[i]
			}
		}), []Option{WithHashFunctions(32)}, "not dense"},
		{"repeated name", mutated(func(b []byte) {
			copy(b[ents.Off+rec+4:ents.Off+rec+14], b[ents.Off+4:ents.Off+14]) // entity 1 takes entity 0's name span
		}), []Option{WithHashFunctions(32)}, "repeats entity name"},
	}
	// The log the refused DB ingests afterwards starts a thousand days before
	// the file's epoch: against an adopted epoch every visit would be refused.
	later := visits(TimeAt(0))
	ref := newDB(WithHashFunctions(16))
	if _, err := ref.AddVisits(later); err != nil {
		t.Fatal(err)
	}
	queries := []string{"e0", "e5", "e11"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newDB(tc.opts...)
			if err := db.LoadMappedIndex(tc.path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a refusal containing %q, got: %v", tc.want, err)
			}
			if _, set := db.Epoch(); set {
				t.Error("the refused load fixed the DB's epoch")
			}
			if n := db.NumEntities(); n != 0 {
				t.Errorf("the refused load registered %d entities", n)
			}
			if st := db.IndexStats(); st.Generation != 0 || st.Mapped {
				t.Errorf("the refused load published an index: %+v", st)
			}
			// A good file still loads …
			if tc.name != "scalar mismatch" {
				if err := db.LoadMappedIndex(write(good)); err != nil {
					t.Fatalf("good load after the refused one: %v", err)
				}
				assertSameAnswers(t, saver, db, queries, 4)
				return
			}
			// … and a DB it cannot load into works as if it never saw one.
			if n, err := db.AddVisits(later); err != nil || n != len(later) {
				t.Fatalf("ingest after the refused load: %d of %d visits, err %v", n, len(later), err)
			}
			if err := db.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, ref, db, queries, 4)
		})
	}
}

// TestLoadMappedIndexValidationErrors: configuration drift between the file
// and the DB is a descriptive load-time error.
func TestLoadMappedIndexValidationErrors(t *testing.T) {
	_, path, log := mappedWorld(t, 30)
	cases := []struct {
		name string
		db   func(t *testing.T) *DB
		want string
	}{
		{"hash-function mismatch", func(t *testing.T) *DB { return emptyGrid(t, WithHashFunctions(64)) }, "hash functions"},
		{"seed mismatch", func(t *testing.T) *DB { return emptyGrid(t, WithSeed(99)) }, "seed"},
		{"jaccard mismatch", func(t *testing.T) *DB { return emptyGrid(t, WithJaccardMeasure()) }, "jaccard"},
		{"measure mismatch", func(t *testing.T) *DB { return emptyGrid(t, WithPaperMeasure(3, 1)) }, "measure"},
		{"permuted registry", func(t *testing.T) *DB {
			// Reverse entity arrival so every re-ingested ID differs from
			// save time: mapped loads are ID-stable and must refuse.
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
			return freshGrid(t, permuted)
		}, "resolve by ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.db(t).LoadMappedIndex(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}
}

// TestMappedCorruption: truncation and corruption of a mapped file fail at
// load time with a descriptive error — never a panic now or a SIGBUS when a
// query later faults a missing page. One case per layer here, through the
// public loader; the full tables are internal/secfile's (container) and
// internal/core's (image).
func TestMappedCorruption(t *testing.T) {
	_, path, _ := mappedWorld(t, 30)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets come from the file's own section table (internal/secfile's
	// layout: magic, page size u32, claimed size u64, section count u32, then
	// {kind u32, offset u64, length u64} per section); the entity count is
	// the fifth word of the meta section, the first entity record opens the
	// entities section (the third) with its sequence length at record offset 24.
	sr, err := secfile.NewReaderAt(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var (
		offClaimed  = len(secfile.Magic) + 4
		offSeqsOff  = len(secfile.Magic) + 16 + 20*4 + 4 // fifth table entry, its offset word
		offCount    = sr.Secs[0].Off + 4*8
		offFirstRec = sr.Secs[2].Off
	)
	const pageSize = secfile.Page
	load := func(t *testing.T, mutate func(b []byte) []byte) error {
		t.Helper()
		b := mutate(append([]byte(nil), raw...))
		p := filepath.Join(t.TempDir(), "corrupt.map")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		db := emptyGrid(t)
		defer db.Close()
		err := db.LoadMappedIndex(p)
		if err == nil {
			t.Fatal("corrupt mapped snapshot accepted")
		}
		return err
	}

	t.Run("file shorter than header claims", func(t *testing.T) {
		err := load(t, func(b []byte) []byte { return b[:len(b)-pageSize] })
		if !strings.Contains(err.Error(), "claims") {
			t.Fatalf("want size-mismatch error, got: %v", err)
		}
	})
	t.Run("header claims more than the file", func(t *testing.T) {
		err := load(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[offClaimed:], uint64(len(b))+pageSize)
			return b
		})
		if !strings.Contains(err.Error(), "claims") {
			t.Fatalf("want size-mismatch error, got: %v", err)
		}
	})
	t.Run("misaligned region offset", func(t *testing.T) {
		err := load(t, func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[offSeqsOff:])
			binary.LittleEndian.PutUint64(b[offSeqsOff:], off+8)
			return b
		})
		if !strings.Contains(err.Error(), "aligned") {
			t.Fatalf("want alignment error, got: %v", err)
		}
	})
	t.Run("truncated section table", func(t *testing.T) {
		err := load(t, func(b []byte) []byte {
			count := binary.LittleEndian.Uint64(b[offCount:])
			binary.LittleEndian.PutUint64(b[offCount:], count+3)
			return b
		})
		if !strings.Contains(err.Error(), "entity table is") {
			t.Fatalf("want entity-table size error, got: %v", err)
		}
	})
	t.Run("sequence span outside region", func(t *testing.T) {
		err := load(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[offFirstRec+24:], 0x7FFFFFF0)
			return b
		})
		if !strings.Contains(err.Error(), "sequence span") {
			t.Fatalf("want span error, got: %v", err)
		}
	})
	t.Run("short header", func(t *testing.T) {
		err := load(t, func(b []byte) []byte { return b[:16] })
		if !strings.Contains(err.Error(), "too short") {
			t.Fatalf("want short-header error, got: %v", err)
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		err := load(t, func(b []byte) []byte { b[0] = 'X'; return b })
		if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want magic error, got: %v", err)
		}
	})
}
