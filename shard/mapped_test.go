package shard

// Cluster envelope tests: SaveIndex → OpenIndex must boot a cluster with NO
// visit re-ingest and answer bit-identically to the saving cluster, across
// shard counts, including clusters with empty shards.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/internal/secfile"
)

// emptyCluster builds a shard-compatible cluster with nothing ingested.
func emptyCluster(t *testing.T, shards int) *Cluster {
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
	return c
}

// saveMapped writes c's envelope to a temp file and returns its path.
func saveMapped(t *testing.T, c *Cluster) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.map")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.SaveIndex(f)
	if err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Size() {
		t.Fatalf("SaveIndex reported %d bytes, wrote %d", n, st.Size())
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
// mapped with live pool counters, and saves an envelope of its own.
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
			if err := c2.OpenIndex(path); err != nil {
				t.Fatalf("OpenIndex into an empty cluster: %v", err)
			}
			if got, want := c2.NumEntities(), c1.NumEntities(); got != want {
				t.Fatalf("mapped cluster adopted %d entities, want %d", got, want)
			}
			sameTopK(t, c1, c2, queries, 5)
			st := c2.IndexStats()
			if !st.Mapped {
				t.Error("IndexStats.Mapped = false on a mapped cluster")
			}
			if st.Decoded == 0 {
				t.Error("queries decoded no image entity")
			}
			if _, err := c2.SaveIndex(&bytes.Buffer{}); err != nil {
				t.Errorf("cluster SaveIndex after the open: %v", err)
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
	if err := c2.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex over a re-ingested cluster: %v", err)
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
	if err := c2.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex with empty shards: %v", err)
	}
	sameTopK(t, c1, c2, []string{"entity-0"}, 3)
}

// TestClusterMappedEnvelopeErrors: wrong shard count, a single-DB image, and
// truncation all fail descriptively (the envelope's own tables:
// TestClusterLoadIndexEnvelopeErrors).
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
		err := c2.OpenIndex(path)
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
		if _, err := c1.shards[0].(local).SaveIndex(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		c2 := emptyCluster(t, 4)
		defer c2.Close()
		err = c2.OpenIndex(dbPath)
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
		err = c2.OpenIndex(cut)
		if err == nil || !strings.Contains(err.Error(), "claims") {
			t.Fatalf("want size-mismatch error, got: %v", err)
		}
	})
}

// TestClusterRefusedMappedLoadKeepsSlotMap: the slot map an empty cluster
// adopts from an envelope is published only once every check that needs no
// shard load has passed — an envelope refused for a shard image's entity
// table, which the registry is read from, leaves the cluster's routing,
// registry and shards as they were, and the intact envelope still loads.
func TestClusterRefusedMappedLoadKeepsSlotMap(t *testing.T) {
	log := cityLog(t, 30)
	skewed := make([]int, NumSlots)
	for s := range skewed {
		skewed[s] = s % 3 // shard 3 owns nothing
	}
	c1, err := NewCluster(Config{Shards: 4, InitialSlots: skewed, NewShard: func(int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(4, 0)
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
	sr, err := secfile.NewReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	img, err := secfile.NewReader(raw[sr.Secs[1].Off:sr.Secs[1].End()])
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[sr.Secs[1].Off+img.Secs[2].Off]++ // shard 0's entity table fails its checksum
	badPath := filepath.Join(t.TempDir(), "bad.map")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := emptyCluster(t, 4)
	defer c2.Close()
	epoch, assign := c2.SlotEpoch(), c2.SlotAssignment()
	if err := c2.OpenIndex(badPath); err == nil || !strings.Contains(err.Error(), "entity table checksum") {
		t.Fatalf("want the entity-table refusal, got: %v", err)
	}
	if c2.SlotEpoch() != epoch || !reflect.DeepEqual(c2.SlotAssignment(), assign) {
		t.Errorf("refused load changed the slot map: epoch %d → %d", epoch, c2.SlotEpoch())
	}
	if n := c2.NumEntities(); n != 0 {
		t.Errorf("refused load left %d entities", n)
	}
	if err := c2.OpenIndex(path); err != nil {
		t.Fatalf("intact envelope after the refused one: %v", err)
	}
	if !reflect.DeepEqual(c2.SlotAssignment(), skewed) {
		t.Error("the loaded cluster did not adopt the envelope's slot map")
	}
	sameTopK(t, c1, c2, []string{"entity-0", "entity-7", "entity-19"}, 5)
}

// TestPartitionMappedLoadedDB: a DB booted off a mapped image keeps no visit
// log for what it loaded, yet Partition replays its AllVisits — so they must
// carry the stored sequences' presence, and the cluster must answer every
// entity exactly as the source does, with and without visits ingested after
// the load.
func TestPartitionMappedLoadedDB(t *testing.T) {
	src := testCity(t)
	if err := src.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.map")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	later := []digitaltraces.VisitRecord{
		{Entity: "entity-3", Venue: "venue-5", Start: time.Unix(0, 0).Add(80 * time.Hour), End: time.Unix(0, 0).Add(83 * time.Hour)},
		{Entity: "newcomer", Venue: "venue-5", Start: time.Unix(0, 0).Add(81 * time.Hour), End: time.Unix(0, 0).Add(82 * time.Hour)},
		{Entity: "entity-9", Venue: "venue-40", Start: time.Unix(0, 0).Add(2 * time.Hour), End: time.Unix(0, 0).Add(9 * time.Hour)},
	}
	for _, tail := range [][]digitaltraces.VisitRecord{nil, later} {
		t.Run(fmt.Sprintf("post-load visits=%d", len(tail)), func(t *testing.T) {
			mapped, err := digitaltraces.NewGridDB(citySide, cityLevels)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if err := mapped.OpenIndex(path); err != nil {
				t.Fatal(err)
			}
			want, queries := src, []string{}
			for e := 0; e < cityEntities; e++ {
				queries = append(queries, fmt.Sprintf("entity-%d", e))
			}
			if len(tail) > 0 {
				// The source's twin with the same visits ingested after it.
				if want, err = digitaltraces.NewGridDB(citySide, cityLevels); err != nil {
					t.Fatal(err)
				}
				if _, err := want.AddVisits(append(src.AllVisits(), tail...)); err != nil {
					t.Fatal(err)
				}
				if _, err := mapped.AddVisits(tail); err != nil {
					t.Fatal(err)
				}
				for _, db := range []*digitaltraces.DB{want, mapped} {
					if err := db.BuildIndex(); err != nil {
						t.Fatal(err)
					}
				}
				queries = append(queries, "newcomer")
			}
			c := testCluster(t, mapped, 2)
			defer c.Close()
			if err := c.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if got, w := c.NumEntities(), want.NumEntities(); got != w {
				t.Fatalf("cluster of the mapped DB holds %d entities, the source %d", got, w)
			}
			for _, q := range queries {
				w, _, err := want.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := c.TopK(q, 5)
				if err != nil {
					t.Fatalf("TopK(%s) on the cluster of the mapped DB: %v", q, err)
				}
				requireSameMatches(t, "TopK("+q+")", g, w)
			}
		})
	}
}

// TestExampleQueryOnEveryEngine: query by example — a hypothetical entity,
// ID −1 below the registry, that no store ever holds — answers the same on a
// DB, on a DB serving that DB's image in place, and on a 2-shard cluster,
// and finds the entity whose visits it copies first.
func TestExampleQueryOnEveryEngine(t *testing.T) {
	src, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 60, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := src.SaveIndex(&img); err != nil {
		t.Fatal(err)
	}
	mapped, err := digitaltraces.NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.OpenImage(img.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !mapped.IndexStats().Mapped {
		t.Fatal("the opened DB does not serve its image in place")
	}
	cluster, err := Partition(src, Config{Shards: 2, NewShard: func(int) (*digitaltraces.DB, error) { return digitaltraces.NewGridDB(4, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"entity-0", "entity-17", "entity-59"} {
		example, err := src.VisitsOf(name)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := src.TopKByExample(example, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 5 || want[0].Entity != name || want[0].Degree != 1 {
			t.Fatalf("example of %s: DB answers %v, want %s first at degree 1", name, want, name)
		}
		for engine, e := range map[string]digitaltraces.Engine{"mapped DB": mapped, "2-shard cluster": cluster} {
			got, _, err := e.TopKByExample(example, 5)
			if err != nil {
				t.Fatalf("%s, example of %s: %v", engine, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, example of %s: %v, the DB answers %v", engine, name, got, want)
			}
		}
	}
}
