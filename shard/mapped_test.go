package shard

// Mapped cluster envelope tests: SaveMappedIndex → LoadMappedIndex must boot
// a cluster with NO visit re-ingest and answer bit-identically to the saving
// cluster, across shard counts, including clusters with empty shards.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"digitaltraces"
	"digitaltraces/internal/secfile"
)

// emptyCluster builds a shard-compatible cluster with nothing ingested.
func emptyCluster(t *testing.T, shards int) *Cluster {
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
	return c
}

// saveMapped writes c's mapped envelope to a temp file and returns its path.
func saveMapped(t *testing.T, c *Cluster) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.map")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.SaveMappedIndex(f)
	if err != nil {
		t.Fatalf("SaveMappedIndex: %v", err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Size() {
		t.Fatalf("SaveMappedIndex reported %d bytes, wrote %d", n, st.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameTopK(t *testing.T, want, got digitaltraces.Engine, queries []string, k int) {
	t.Helper()
	for _, q := range queries {
		w, _, err := want.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := got.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("TopK(%s) diverges after mapped cluster restart:\n  loaded: %v\n  saved:  %v", q, g, w)
		}
	}
}

// TestClusterMappedRoundTrip: the no-re-ingest restart — an EMPTY cluster
// serves bit-identical answers straight off the envelope, reports itself
// mapped with live pool counters, and refuses the heap SaveIndex.
func TestClusterMappedRoundTrip(t *testing.T) {
	log := cityLog(t, 40)
	queries := []string{"entity-0", "entity-7", "entity-19", "entity-33"}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c1 := persistCluster(t, shards, log)
			defer c1.Close()
			if err := c1.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			path := saveMapped(t, c1)

			c2 := emptyCluster(t, shards)
			defer c2.Close()
			if err := c2.LoadMappedIndex(path); err != nil {
				t.Fatalf("LoadMappedIndex into an empty cluster: %v", err)
			}
			if got, want := c2.NumEntities(), c1.NumEntities(); got != want {
				t.Fatalf("mapped cluster adopted %d entities, want %d", got, want)
			}
			sameTopK(t, c1, c2, queries, 5)
			st := c2.IndexStats()
			if !st.Mapped {
				t.Error("IndexStats.Mapped = false on a mapped cluster")
			}
			if st.PoolHits+st.PoolMisses == 0 {
				t.Error("queries reported no buffer-pool traffic")
			}
			if st.DirtyCount != 0 {
				t.Errorf("dirty count = %d after a no-ingest mapped load, want 0", st.DirtyCount)
			}
			if _, err := c2.SaveIndex(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "SaveMappedIndex") {
				t.Errorf("cluster SaveIndex after mapped load: want refusal naming SaveMappedIndex, got %v", err)
			}
		})
	}
}

// TestClusterMappedReingestedLog: the envelope also loads over a cluster that
// re-ingested the same log (IDs and ordinals agree), and new visits after the
// load union-fold in — matching a cluster rebuilt over the grown log.
func TestClusterMappedReingestedLog(t *testing.T) {
	log := cityLog(t, 40)
	c1 := persistCluster(t, 4, log)
	defer c1.Close()
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := saveMapped(t, c1)

	c2 := persistCluster(t, 4, log)
	defer c2.Close()
	if err := c2.LoadMappedIndex(path); err != nil {
		t.Fatalf("LoadMappedIndex over a re-ingested cluster: %v", err)
	}
	sameTopK(t, c1, c2, []string{"entity-0", "entity-19"}, 5)

	added := []digitaltraces.VisitRecord{
		{Entity: "entity-7", Venue: digitaltraces.VenueName(3), Start: digitaltraces.TimeAt(2), End: digitaltraces.TimeAt(4)},
		{Entity: "newcomer", Venue: digitaltraces.VenueName(8), Start: digitaltraces.TimeAt(5), End: digitaltraces.TimeAt(7)},
	}
	if _, err := c2.AddVisits(added); err != nil {
		t.Fatal(err)
	}
	ref := persistCluster(t, 4, append(append([]digitaltraces.VisitRecord{}, log...), added...))
	defer ref.Close()
	if err := ref.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	sameTopK(t, ref, c2, []string{"entity-7", "newcomer", "entity-19"}, 5)
}

// TestClusterMappedEmptyShard: empty shards write zero-length sections and
// stay index-less after the mapped load.
func TestClusterMappedEmptyShard(t *testing.T) {
	log := cityLog(t, 1) // one entity, four shards: most shards empty
	c1 := persistCluster(t, 4, log)
	defer c1.Close()
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := saveMapped(t, c1)
	c2 := emptyCluster(t, 4)
	defer c2.Close()
	if err := c2.LoadMappedIndex(path); err != nil {
		t.Fatalf("LoadMappedIndex with empty shards: %v", err)
	}
	sameTopK(t, c1, c2, []string{"entity-0"}, 3)
}

// TestClusterMappedEnvelopeErrors: wrong shard count, a single-DB mapped file,
// and truncation all fail descriptively (the envelope's own tables:
// TestClusterLoadIndexEnvelopeErrors, through both loaders).
func TestClusterMappedEnvelopeErrors(t *testing.T) {
	log := cityLog(t, 20)
	c1 := persistCluster(t, 4, log)
	defer c1.Close()
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := saveMapped(t, c1)

	t.Run("shard count mismatch", func(t *testing.T) {
		c2 := emptyCluster(t, 2)
		defer c2.Close()
		err := c2.LoadMappedIndex(path)
		if err == nil || !strings.Contains(err.Error(), "shard count") {
			t.Fatalf("want shard-count mismatch error, got: %v", err)
		}
	})
	t.Run("single-DB mapped file", func(t *testing.T) {
		dbPath := filepath.Join(t.TempDir(), "db.map")
		f, err := os.Create(dbPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c1.shards[0].(local).SaveMappedIndex(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		c2 := emptyCluster(t, 4)
		defer c2.Close()
		err = c2.LoadMappedIndex(dbPath)
		if err == nil || !strings.Contains(err.Error(), "not a cluster envelope") {
			t.Fatalf("want a not-an-envelope error, got: %v", err)
		}
	})
	t.Run("truncated envelope", func(t *testing.T) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(t.TempDir(), "cut.map")
		if err := os.WriteFile(cut, raw[:len(raw)-4096], 0o644); err != nil {
			t.Fatal(err)
		}
		c2 := emptyCluster(t, 4)
		defer c2.Close()
		err = c2.LoadMappedIndex(cut)
		if err == nil || !strings.Contains(err.Error(), "claims") {
			t.Fatalf("want size-mismatch error, got: %v", err)
		}
	})
}

// TestClusterMappedEnvelopeLoadsByName: the envelope SaveMappedIndex writes is
// the one format — Cluster.LoadIndex loads it by name over a re-ingested log
// (each shard stops reading its section before the sequences), at the saved
// shard count or another, with the saver's answers.
func TestClusterMappedEnvelopeLoadsByName(t *testing.T) {
	log := cityLog(t, 40)
	c1 := persistCluster(t, 4, log)
	defer c1.Close()
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(saveMapped(t, c1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 2} {
		c2 := persistCluster(t, shards, log)
		defer c2.Close()
		if err := c2.LoadIndex(bytes.NewReader(raw)); err != nil {
			t.Fatalf("LoadIndex of a mapped envelope into %d shards: %v", shards, err)
		}
		// At another shard count the entities whose section landed elsewhere
		// stay dirty until their first refresh; at the saved one nothing does.
		if st := c2.IndexStats(); st.Mapped || (shards == 4 && st.DirtyCount != 0) {
			t.Errorf("%d shards: mapped %t, %d dirty — want a heap-served cluster, clean at the saved count", shards, st.Mapped, st.DirtyCount)
		}
		sameTopK(t, c1, c2, []string{"entity-0", "entity-7", "entity-19", "entity-33"}, 5)
	}
}

// TestClusterRefusedMappedLoadKeepsSlotMap: the slot map an empty cluster
// adopts from an envelope is published only once every check that needs no
// shard load has passed — an envelope refused for its ordinal table leaves the
// cluster's routing, registry and shards as they were, and the intact envelope
// still loads.
func TestClusterRefusedMappedLoadKeepsSlotMap(t *testing.T) {
	log := cityLog(t, 30)
	skewed := make([]int, NumSlots)
	for s := range skewed {
		skewed[s] = s % 3 // shard 3 owns nothing
	}
	c1, err := NewCluster(Config{Shards: 4, InitialSlots: skewed, NewShard: func(int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(32))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := c1.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := saveMapped(t, c1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := secfile.NewReaderAt(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[sr.Secs[1].Off]++ // one more ordinal claimed than stored
	badPath := filepath.Join(t.TempDir(), "bad.map")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := emptyCluster(t, 4)
	defer c2.Close()
	epoch, assign := c2.SlotEpoch(), c2.SlotAssignment()
	if err := c2.LoadMappedIndex(badPath); err == nil || !strings.Contains(err.Error(), "ordinal table truncated") {
		t.Fatalf("want the ordinal-table refusal, got: %v", err)
	}
	if c2.SlotEpoch() != epoch || !reflect.DeepEqual(c2.SlotAssignment(), assign) {
		t.Errorf("refused load changed the slot map: epoch %d → %d", epoch, c2.SlotEpoch())
	}
	if n := c2.NumEntities(); n != 0 {
		t.Errorf("refused load left %d entities", n)
	}
	if err := c2.LoadMappedIndex(path); err != nil {
		t.Fatalf("intact envelope after the refused one: %v", err)
	}
	if !reflect.DeepEqual(c2.SlotAssignment(), skewed) {
		t.Error("the loaded cluster did not adopt the envelope's slot map")
	}
	sameTopK(t, c1, c2, []string{"entity-0", "entity-7", "entity-19"}, 5)
}
