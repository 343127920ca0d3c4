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

// TestMappedIndexGainsCellIndexAtBuild: a mapped load replays signatures and
// never reads a sequence, so the tree it serves carries no level-1 cell
// index — it answers exactly from the signatures alone, skips nothing, and
// accounts no memory for one — through refreshes too, until the next
// BuildIndex reads every sequence anyway and seals one.
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
	skipped := func(e Engine) (n int) {
		for _, name := range names {
			_, qs, err := e.TopK(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			n += qs.ZeroSkipped + qs.BoundSkipped
		}
		return n
	}
	built := skipped(src)
	if built == 0 {
		t.Fatal("fixture: the built index skips nothing")
	}
	assertSameAnswers(t, src, db, names, 3)
	if n := skipped(db); n != 0 {
		t.Errorf("mapped index skipped %d entities; it has no cell index to skip by", n)
	}
	if got, want := db.IndexStats().MemoryBytes, src.IndexStats().MemoryBytes; got >= want {
		t.Errorf("mapped index reports %d bytes, the built one %d with its cell index", got, want)
	}
	grown := VisitRecord{Entity: "p03", Venue: VenueName(9), Start: TimeAt(40), End: TimeAt(41)}
	for _, e := range []*DB{src, db} {
		if _, err := e.AddVisits([]VisitRecord{grown}); err != nil {
			t.Fatal(err)
		}
		if err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	assertSameAnswers(t, src, db, names, 3)
	if n := skipped(db); n != 0 {
		t.Errorf("refreshed mapped index skipped %d entities", n)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, src, db, names, 3)
	if n := skipped(db); n == 0 {
		t.Error("BuildIndex over a mapped lineage sealed no cell index")
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

// TestMappedCorruption is the satellite-3 contract: truncation and corruption
// of every region of the file fail at load time with a descriptive error —
// never a panic now or a SIGBUS when a query later faults a missing page.
func TestMappedCorruption(t *testing.T) {
	_, path, _ := mappedWorld(t, 30)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header byte offsets (see internal/core mapped.go): magic is 9 bytes,
	// pageSize u32 at 9, claimed file size u64 at 13, ten u64 scalars at 21
	// (entity count is scalar 4 → offset 53), then the section table at 101:
	// entities {off,len} at 101/109, names at 117/125, seqs at 133/141.
	const (
		offClaimed  = 13
		offCount    = 21 + 4*8
		offNamesOff = 101 + 16
		pageSize    = 4096
	)
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
			off := binary.LittleEndian.Uint64(b[offNamesOff:])
			binary.LittleEndian.PutUint64(b[offNamesOff:], off+8)
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
		if !strings.Contains(err.Error(), "truncated section table") {
			t.Fatalf("want truncated-table error, got: %v", err)
		}
	})
	t.Run("sequence span outside region", func(t *testing.T) {
		err := load(t, func(b []byte) []byte {
			// First entity record sits at the top of the entities region
			// (one page in); its seqLen u32 lives at record offset 24.
			binary.LittleEndian.PutUint32(b[pageSize+24:], 0xFFFFFFF0)
			return b
		})
		if !strings.Contains(err.Error(), "sequence span") {
			t.Fatalf("want span error, got: %v", err)
		}
	})
	t.Run("short header", func(t *testing.T) {
		err := load(t, func(b []byte) []byte { return b[:64] })
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
