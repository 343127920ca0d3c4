package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"digitaltraces"
	"digitaltraces/internal/secfile"
)

// persistCluster builds an N-shard cluster over a deterministic synthetic
// city's visit log.
func persistCluster(t *testing.T, shards int, log []digitaltraces.VisitRecord) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Shards: shards,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(32))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := c.AddVisits(log); err != nil || n != len(log) {
		t.Fatalf("ingest: %d of %d, err %v", n, len(log), err)
	}
	return c
}

func cityLog(t *testing.T, entities int) []digitaltraces.VisitRecord {
	t.Helper()
	src, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: entities, Days: 3}, digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	return src.AllVisits()
}

// TestClusterSaveLoadRoundTrip: a warm-restarted cluster (re-ingest the log,
// LoadIndex the envelope) answers bit-identically to the cluster that saved
// it — and to a single rebuilt DB over the same data, preserving the
// cluster exactness invariant through persistence.
func TestClusterSaveLoadRoundTrip(t *testing.T) {
	log := cityLog(t, 40)
	queries := []string{"entity-0", "entity-7", "entity-19", "entity-33"}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c1 := persistCluster(t, shards, log)
			if err := c1.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := c1.SaveIndex(&buf)
			if err != nil {
				t.Fatalf("SaveIndex: %v", err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("SaveIndex reported %d bytes, wrote %d", n, buf.Len())
			}

			c2 := persistCluster(t, shards, log)
			if err := c2.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("LoadIndex: %v", err)
			}
			if got, want := c2.IndexStats().Entities, c1.IndexStats().Entities; got != want {
				t.Fatalf("loaded cluster indexes %d entities, want %d", got, want)
			}
			for _, q := range queries {
				w, _, err := c1.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := c2.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("TopK(%s) diverges after cluster warm restart:\n  loaded: %v\n  saved:  %v", q, g, w)
				}
			}
		})
	}
}

// TestClusterLoadIndexShardCountChange: a slot-mapped envelope saved at one
// shard count loads into a cluster of another — sections are matched to
// shards by slot overlap and loaded leniently — and the restarted cluster
// answers bit-identically to the one that saved it.
func TestClusterLoadIndexShardCountChange(t *testing.T) {
	log := cityLog(t, 40)
	queries := []string{"entity-0", "entity-7", "entity-19", "entity-33"}
	c4 := persistCluster(t, 4, log)
	if err := c4.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c4.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("into=%d", shards), func(t *testing.T) {
			c2 := persistCluster(t, shards, log)
			if err := c2.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("LoadIndex 4→%d: %v", shards, err)
			}
			for _, q := range queries {
				w, _, err := c4.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := c2.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("TopK(%s) diverges after 4→%d reload:\n  loaded: %v\n  saved:  %v", q, shards, g, w)
				}
			}
		})
	}
}

// TestLegacyMagicsRejected: the retired formats are not snapshots to any
// loader. Each of DB.LoadIndex, DB.LoadMappedIndex, Cluster.LoadIndex and
// Cluster.LoadMappedIndex refuses each of them with an error naming the magic
// it found — never a panic — and keeps serving its previous snapshot
// unchanged. The four the one container replaced (MSIGTREE2, MSIGMAP1,
// MSIGCLUST2, MSIGCMAP2) are the ones a deployment may still hold: for those
// the error also says what to do, re-save.
func TestLegacyMagicsRejected(t *testing.T) {
	log := cityLog(t, 20)
	queries := []string{"entity-0", "entity-7", "entity-19"}
	db, err := digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	c := persistCluster(t, 2, log)
	loaders := []struct {
		name string
		eng  digitaltraces.Engine
		load func(path string, b []byte) error
	}{
		{"DB.LoadIndex", db, func(_ string, b []byte) error { return db.LoadIndex(bytes.NewReader(b)) }},
		{"DB.LoadMappedIndex", db, func(path string, _ []byte) error { return db.LoadMappedIndex(path) }},
		{"Cluster.LoadIndex", c, func(_ string, b []byte) error { return c.LoadIndex(bytes.NewReader(b)) }},
		{"Cluster.LoadMappedIndex", c, func(path string, _ []byte) error { return c.LoadMappedIndex(path) }},
	}
	for _, l := range loaders {
		if err := l.eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	for i, magic := range []string{"MSIGTREE1", "MSIGCLUST1", "MSIGCMAP1", "MSIGTREE2", "MSIGMAP1", "MSIGCLUST2", "MSIGCMAP2"} {
		// Magic plus a few zero words: long enough that every loader gets
		// past its minimum-header check and fails on the magic itself.
		b := append([]byte(magic+"\n"), make([]byte, 64)...)
		path := filepath.Join(t.TempDir(), magic)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, l := range loaders {
			gen := l.eng.IndexStats().Generation
			var before [][]digitaltraces.Match
			for _, q := range queries {
				ms, _, err := l.eng.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				before = append(before, ms)
			}
			err := l.load(path, b)
			if err == nil || !strings.Contains(err.Error(), magic) {
				t.Errorf("%s(%s): want an error naming the magic, got: %v", l.name, magic, err)
			} else if i >= 3 && !strings.Contains(err.Error(), "retired index format — re-save") {
				t.Errorf("%s(%s): want the error to call the format retired and say re-save, got: %v", l.name, magic, err)
			}
			if got := l.eng.IndexStats().Generation; got != gen {
				t.Errorf("%s(%s): generation moved %d → %d on a refused load", l.name, magic, gen, got)
			}
			for i, q := range queries {
				ms, _, err := l.eng.TopK(q, 5)
				if err != nil || !reflect.DeepEqual(ms, before[i]) {
					t.Errorf("%s(%s): TopK(%s) changed after a refused load: %v (err %v), want %v", l.name, magic, q, ms, err, before[i])
				}
			}
		}
	}
}

// TestClusterLoadIndexEnvelopeErrors: truncation and every corruption of the
// envelope's own tables are descriptive errors from both loaders, and a
// single-DB image fed to a cluster is told apart by its sections.
func TestClusterLoadIndexEnvelopeErrors(t *testing.T) {
	log := cityLog(t, 20)
	c := persistCluster(t, 2, log)
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	c2 := persistCluster(t, 2, log)
	for _, cut := range []int{0, 5, 15, 25, len(good) / 2, len(good) - 3} {
		if err := c2.LoadIndex(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated envelope (%d of %d bytes) accepted", cut, len(good))
		}
	}

	sr, err := secfile.NewReaderAt(bytes.NewReader(good), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	slots, ord := sr.Secs[0], sr.Secs[1]
	entry := func(i int) int { return len(secfile.Magic) + 16 + 20*i } // section i's table entry: kind tag, offset u64, length u64
	cases := []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		{"slot assigned past the section count", func(b []byte) { binary.LittleEndian.PutUint16(b[slots.Off+8+2*17:], 2) }, "slot 17 assigned to shard 2 of 2"},
		{"slot map not sized for the sections", func(b []byte) { b[entry(0)+12]-- }, "slot map of"},
		{"oversized section", func(b []byte) {
			// A shard section of 2^35 bytes in a file the header says is larger still.
			binary.LittleEndian.PutUint64(b[len(secfile.Magic)+4:], 1<<36)
			binary.LittleEndian.PutUint64(b[entry(3)+12:], 1<<35)
		}, "claims 34359738368 bytes"},
		{"truncated ordinals", func(b []byte) { b[ord.End()-int64(len("entity-19"))-2] = 200 }, "ordinal table truncated inside entry 19"},
		{"a table where a shard image belongs", func(b []byte) { copy(b[entry(2):], secfile.Names) }, "want a shard image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			if err := c2.LoadIndex(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadIndex: want an error containing %q, got: %v", tc.want, err)
			}
			if tc.name == "oversized section" {
				return // a mapping knows the file's real size: the header's claim fails first
			}
			path := filepath.Join(t.TempDir(), "corrupt.env")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c2.LoadMappedIndex(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadMappedIndex: want an error containing %q, got: %v", tc.want, err)
			}
		})
	}

	// A single-DB snapshot is not a cluster envelope.
	var dbSnap bytes.Buffer
	if _, err := c.shards[0].SaveIndex(&dbSnap); err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadIndex(bytes.NewReader(dbSnap.Bytes())); err == nil || !strings.Contains(err.Error(), "not a cluster envelope") {
		t.Errorf("single-DB snapshot accepted as cluster envelope: %v", err)
	}
}

// TestClusterSaveLoadWithEmptyShard: a cluster where the router left a
// shard empty still round-trips (the empty shard writes an empty section
// and stays index-less).
func TestClusterSaveLoadWithEmptyShard(t *testing.T) {
	// One entity, many shards: most shards are empty.
	var log []digitaltraces.VisitRecord
	for _, v := range cityLog(t, 1) {
		log = append(log, v)
	}
	c1 := persistCluster(t, 4, log)
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c1.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex with empty shards: %v", err)
	}
	c2 := persistCluster(t, 4, log)
	if err := c2.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadIndex with empty shards: %v", err)
	}
	w, _, err := c1.TopK("entity-0", 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := c2.TopK("entity-0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("answers diverge: %v vs %v", g, w)
	}
}
