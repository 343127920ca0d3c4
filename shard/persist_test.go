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
func persistCluster(t testing.TB, shards int, log []digitaltraces.VisitRecord) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Shards: shards,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if n, err := c.AddVisits(log); err != nil || n != len(log) {
		t.Fatalf("ingest: %d of %d, err %v", n, len(log), err)
	}
	return c
}

// openEnvelope writes b to a file and opens it on c.
func openEnvelope(t *testing.T, c *Cluster, b []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.idx")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return c.OpenIndex(path)
}

func cityLog(t testing.TB, entities int) []digitaltraces.VisitRecord {
	t.Helper()
	src, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: entities, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	return src.AllVisits()
}

// TestClusterSaveLoadRoundTrip: a restarted cluster over the re-ingested log
// (re-ingest, then OpenIndex the envelope) answers bit-identically to the
// cluster that saved it, preserving the cluster exactness invariant through
// persistence.
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
			if err := openEnvelope(t, c2, buf.Bytes()); err != nil {
				t.Fatalf("OpenIndex: %v", err)
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

// TestClusterLoadIndexShardCountChange: an envelope saved at one shard count
// is refused by a cluster of another, naming re-ingest, with its slot map and
// epoch untouched — and that re-ingest at the new count, built, answers
// bit-identically to the cluster that saved the envelope.
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
			epoch, assign := c2.SlotEpoch(), c2.SlotAssignment()
			if err := openEnvelope(t, c2, buf.Bytes()); err == nil || !strings.Contains(err.Error(), "re-ingest") {
				t.Fatalf("OpenIndex 4→%d: want a refusal naming re-ingest, got %v", shards, err)
			}
			if c2.SlotEpoch() != epoch || !reflect.DeepEqual(c2.SlotAssignment(), assign) {
				t.Fatalf("the refused open moved the slot map: epoch %d → %d", epoch, c2.SlotEpoch())
			}
			if err := c2.BuildIndex(); err != nil {
				t.Fatal(err)
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
					t.Fatalf("TopK(%s) diverges after the 4→%d re-ingest:\n  rebuilt: %v\n  saved:   %v", q, shards, g, w)
				}
			}
		})
	}
}

// TestClusterOpenEnvelopeExtendsRegistry: an envelope saved after a write
// added an entity opens over the re-ingested log that lacks it — the restart
// of a coordinator that took new entities after boot. The envelope's names
// past the registered ones take the next ordinals, and the cluster answers
// like the one that saved it, the newcomer included.
func TestClusterOpenEnvelopeExtendsRegistry(t *testing.T) {
	log := cityLog(t, 30)
	queries := []string{"newcomer", "entity-0", "entity-7", "entity-19"}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c1 := persistCluster(t, shards, log)
			if err := c1.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			added := digitaltraces.VisitRecord{Entity: "newcomer", Venue: digitaltraces.VenueName(3), Start: digitaltraces.TimeAt(5), End: digitaltraces.TimeAt(9)}
			if _, err := c1.AddVisits([]digitaltraces.VisitRecord{added}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := c1.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			c2 := persistCluster(t, shards, log)
			if err := openEnvelope(t, c2, buf.Bytes()); err != nil {
				t.Fatalf("open of an envelope that adds an entity: %v", err)
			}
			if got, want := c2.NumEntities(), c1.NumEntities(); got != want {
				t.Fatalf("%d entities after the open, want %d", got, want)
			}
			for _, q := range queries {
				w, _, err := c1.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := c2.TopK(q, 5)
				if err != nil {
					t.Fatalf("TopK(%s) after the open: %v", q, err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("TopK(%s) diverges after the open:\n  opened: %v\n  saved:  %v", q, g, w)
				}
			}
		})
	}
}

// TestLegacyMagicsRejected: the retired formats are not index files to
// either opener. DB.OpenIndex and Cluster.OpenIndex refuse each of them with
// an error naming what they found — never a panic — and keep serving their
// previous snapshot unchanged. The four magics the one container replaced
// (MSIGTREE2, MSIGMAP1, MSIGCLUST2, MSIGCMAP2) are the ones a deployment may
// still hold: for those the error also says what to do, re-save. So are
// MSIGIDX1 files written before the index dropped its signatures
// (testdata/pre-postings-*, an image and an envelope of this test's log),
// refused by their entity section; ones written before the index kept its
// entities' level sizes (testdata/pre-sizes-*), refused by the cell section
// where the sizes belong; and ones written without their sequences
// (testdata/no-seqs-*: an image, and an envelope of such images), refused by
// the missing sequence section — all with the same advice.
func TestLegacyMagicsRejected(t *testing.T) {
	log := cityLog(t, 20)
	queries := []string{"entity-0", "entity-7", "entity-19"}
	db, err := digitaltraces.NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	c := persistCluster(t, 2, log)
	loaders := []struct {
		name      string
		eng       digitaltraces.Engine
		preChange string // a file of this opener's kind written before the index dropped its signatures
		preSizes  string // one written before the index kept level sizes
		noSeqs    string // one written without its sequences
	}{
		{"DB.OpenIndex", db, "testdata/pre-postings-image.idx", "testdata/pre-sizes-image.idx", "testdata/no-seqs-image.idx"},
		{"Cluster.OpenIndex", c, "testdata/pre-postings-envelope.idx", "testdata/pre-sizes-envelope.idx", "testdata/no-seqs-envelope.idx"},
	}
	for _, l := range loaders {
		if err := l.eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	// refused opens path through l and requires an error containing every
	// want, the engine serving on unchanged.
	refused := func(l int, path string, want ...string) {
		t.Helper()
		eng := loaders[l].eng
		gen := eng.IndexStats().Generation
		var before [][]digitaltraces.Match
		for _, q := range queries {
			ms, _, err := eng.TopK(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			before = append(before, ms)
		}
		err := eng.OpenIndex(path)
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s(%s): want an error containing %q, got: %v", loaders[l].name, path, w, err)
			}
		}
		if got := eng.IndexStats().Generation; got != gen {
			t.Errorf("%s(%s): generation moved %d → %d on a refused load", loaders[l].name, path, gen, got)
		}
		for i, q := range queries {
			ms, _, err := eng.TopK(q, 5)
			if err != nil || !reflect.DeepEqual(ms, before[i]) {
				t.Errorf("%s(%s): TopK(%s) changed after a refused load: %v (err %v), want %v", loaders[l].name, path, q, ms, err, before[i])
			}
		}
	}
	for i, magic := range []string{"MSIGTREE1", "MSIGCLUST1", "MSIGCMAP1", "MSIGTREE2", "MSIGMAP1", "MSIGCLUST2", "MSIGCMAP2"} {
		// Magic plus a few zero words: long enough that every loader gets
		// past its minimum-header check and fails on the magic itself.
		path := filepath.Join(t.TempDir(), magic)
		if err := os.WriteFile(path, append([]byte(magic+"\n"), make([]byte, 64)...), 0o644); err != nil {
			t.Fatal(err)
		}
		want := []string{magic}
		if i >= 3 {
			want = append(want, "retired index format — re-save")
		}
		for l := range loaders {
			refused(l, path, want...)
		}
	}
	for l := range loaders {
		refused(l, loaders[l].preChange, `"ents"`, "retired index format — re-save")
		refused(l, loaders[l].preSizes, `"cell"`, "no level sizes", "retired index format — re-save")
		refused(l, loaders[l].noSeqs, "no sequence section", "retired index format — re-save")
	}
}

// TestClusterLoadIndexEnvelopeErrors: truncation and every corruption of the
// envelope's own tables are descriptive errors, and a single-DB image fed to
// a cluster is told apart by its sections.
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
		if err := openEnvelope(t, c2, good[:cut]); err == nil {
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
			// A shard section of 2^35 bytes in a file the header says is
			// larger still: the real size refuses the header's claim.
			binary.LittleEndian.PutUint64(b[len(secfile.Magic)+4:], 1<<36)
			binary.LittleEndian.PutUint64(b[entry(3)+12:], 1<<35)
		}, "its header claims 68719476736"},
		{"truncated ordinals", func(b []byte) { b[ord.End()-int64(len("entity-19"))-2] = 200 }, "ordinal table truncated inside entry 19"},
		{"a table where a shard image belongs", func(b []byte) { copy(b[entry(2):], secfile.Names) }, "want a shard image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			if err := openEnvelope(t, c2, b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenIndex: want an error containing %q, got: %v", tc.want, err)
			}
		})
	}

	// A single-DB image is not a cluster envelope.
	var dbSnap bytes.Buffer
	if _, err := c.shards[0].SaveIndex(&dbSnap); err != nil {
		t.Fatal(err)
	}
	if err := openEnvelope(t, c2, dbSnap.Bytes()); err == nil || !strings.Contains(err.Error(), "not a cluster envelope") {
		t.Errorf("single-DB image accepted as cluster envelope: %v", err)
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
	if err := openEnvelope(t, c2, buf.Bytes()); err != nil {
		t.Fatalf("OpenIndex with empty shards: %v", err)
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

// FuzzReadEnvelope: arbitrary bytes through the one envelope reader, read by
// offset, are an error or a decoded envelope whose tables agree with the
// sections — never a panic, never an allocation sized by an
// unchecked word. The committed corpus (testdata/fuzz/FuzzReadEnvelope) holds
// two real envelopes, one of them with an empty shard, and a single-DB image,
// all written by SaveIndex; fresh ones are added here so the corpus follows
// the format.
func FuzzReadEnvelope(f *testing.F) {
	log := cityLog(f, 6)
	for _, shards := range []int{1, 3} {
		c := persistCluster(f, shards, log)
		if err := c.BuildIndex(); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.SaveIndex(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		c.Close()
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sr, err := secfile.NewReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		env, err := readEnvelope(sr)
		if err != nil {
			return
		}
		if len(env.touched) != len(sr.Secs)-2 {
			t.Fatalf("%d touched flags for %d shard sections", len(env.touched), len(sr.Secs)-2)
		}
		for s, sh := range env.assign {
			if sh < 0 || sh >= len(env.touched) {
				t.Fatalf("slot %d assigned to shard %d of %d", s, sh, len(env.touched))
			}
		}
		for i, sec := range sr.Secs[2:] {
			if sec.Kind != secfile.Shard || sec.End() > int64(len(b)) {
				t.Fatalf("section %d is %v of %d bytes", 2+i, sec.Kind, sec.Len)
			}
		}
	})
}
