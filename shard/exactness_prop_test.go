package shard

// Randomized exactness property suite for the threshold-pruned scatter-
// gather: over random visit logs — varying entity counts, time horizons,
// deliberately duplicated visit patterns (exact degree ties) and post-build
// dirty fractions — the pruned fan-out, the full-merge reference and a single
// DB must return bit-identical answers, tie order included, for
// N ∈ {1, 2, 4, 8} shards. Run under -race this also exercises the
// coordinator's parallel pull rounds against concurrent lazy refreshes.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"digitaltraces"
	"digitaltraces/shard/internal/proptest"
)

const (
	propSide   = proptest.Side // 16 venues
	propLevels = proptest.Levels
	propHash   = proptest.Hash
)

// randomLog delegates to the shared generator (internal/proptest), which
// shard/remote reuses to run this identical adversarial workload against
// loopback remote shards.
func randomLog(rng *rand.Rand, entities, horizonHours int) []digitaltraces.VisitRecord {
	return proptest.RandomLog(rng, entities, horizonHours)
}

func propDB(t *testing.T) *digitaltraces.DB {
	t.Helper()
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func propCluster(t *testing.T, src *digitaltraces.DB, n int) *Cluster {
	t.Helper()
	c, err := Partition(src, Config{
		Shards: n,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return proptest.NewDB()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fullMerge is the test-only full-merge reference for the bounded gather,
// over the same cluster state TopK reads: every non-empty shard's stream is
// drained completely, filtered to the entities the pinned slot map assigns
// to that shard, put under the global total order and merged whole — no
// threshold cut, no k+1 cap. A non-empty entity names the query entity: its
// visits are resolved on its home shard and it is excluded from the answer.
func (c *Cluster) fullMerge(entity string, visits []digitaltraces.Visit, k int) ([]digitaltraces.Match, error) {
	sm := c.slotmap()
	if entity != "" {
		var err error
		if visits, err = c.shards[sm.Owner(entity)].VisitsOf(entity); err != nil {
			return nil, err
		}
	}
	lists := make([][]entry, len(c.shards))
	for i, sh := range c.shards {
		if sh.NumEntities() == 0 {
			continue
		}
		st, b, err := sh.OpenSearch(visits, 64, 0)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		for {
			c.mu.RLock()
			for _, m := range b.Matches {
				if sm.Owner(m.Entity) == i {
					lists[i] = append(lists[i], entry{m: m, rank: c.rankLocked(m.Entity)})
				}
			}
			c.mu.RUnlock()
			if !b.Live {
				break
			}
			if b, err = st.Pull(64, 0); err != nil {
				return nil, err
			}
		}
		sort.SliceStable(lists[i], func(a, b int) bool { return entryBefore(lists[i][a], lists[i][b]) })
	}
	out, _ := mergeEntries(lists, k, entity)
	return out, nil
}

// comparePaths asserts pruned ≡ full merge ≡ single for one query set.
func comparePaths(t *testing.T, label string, db *digitaltraces.DB, c *Cluster, entities []string, ks []int) {
	t.Helper()
	for _, q := range entities {
		for _, k := range ks {
			want, _, err := db.TopK(q, k)
			if err != nil {
				t.Fatalf("%s: single TopK(%s,%d): %v", label, q, k, err)
			}
			pruned, _, err := c.TopK(q, k)
			if err != nil {
				t.Fatalf("%s: pruned TopK(%s,%d): %v", label, q, k, err)
			}
			full, err := c.fullMerge(q, nil, k)
			if err != nil {
				t.Fatalf("%s: full-merge TopK(%s,%d): %v", label, q, k, err)
			}
			requireSameMatches(t, fmt.Sprintf("%s: pruned vs single TopK(%s,%d)", label, q, k), pruned, want)
			requireSameMatches(t, fmt.Sprintf("%s: full merge vs single TopK(%s,%d)", label, q, k), full, want)
		}
		// Query-by-example through the same three paths, using the entity's
		// own visits (the densest overlap structure available).
		visits, err := db.VisitsOf(q)
		if err != nil {
			t.Fatal(err)
		}
		k := ks[len(ks)-1]
		want, _, err := db.TopKByExample(visits, k)
		if err != nil {
			t.Fatal(err)
		}
		pruned, _, err := c.TopKByExample(visits, k)
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.fullMerge("", visits, k)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, fmt.Sprintf("%s: pruned vs single ByExample(%s,%d)", label, q, k), pruned, want)
		requireSameMatches(t, fmt.Sprintf("%s: full merge vs single ByExample(%s,%d)", label, q, k), full, want)
	}
}

// TestPrunedGatherExactnessProperty is the randomized acceptance property.
// Each trial builds one random log, replays it into a single DB and into
// clusters of 1/2/4/8 shards, compares all three query paths bit-for-bit,
// then dirties a random fraction of entities with fresh visits and compares
// again (the query paths fold the dirt lazily on both sides).
func TestPrunedGatherExactnessProperty(t *testing.T) {
	trials := []struct {
		seed         int64
		entities     int
		horizonHours int
	}{
		{seed: 1, entities: 24, horizonHours: 24},
		{seed: 2, entities: 60, horizonHours: 48},
		{seed: 3, entities: 90, horizonHours: 12}, // dense: short horizon, many collisions
	}
	for _, tr := range trials {
		tr := tr
		t.Run(fmt.Sprintf("seed=%d/entities=%d", tr.seed, tr.entities), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(tr.seed))
			log := randomLog(rng, tr.entities, tr.horizonHours)

			db := propDB(t)
			if _, err := db.AddVisits(log); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildIndex(); err != nil {
				t.Fatal(err)
			}

			// Sample queries: include entity 0 (often heavily cloned) and a
			// random spread. k beyond the population exercises the zero-tail
			// and exhaustion paths.
			queried := map[string]bool{"e000": true}
			for len(queried) < 5 {
				queried[fmt.Sprintf("e%03d", rng.Intn(tr.entities))] = true
			}
			var entities []string
			for q := range queried {
				entities = append(entities, q)
			}
			ks := []int{1, 3, 10, tr.entities + 5}

			for _, n := range []int{1, 2, 4, 8} {
				c := propCluster(t, db, n)
				if err := c.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				comparePaths(t, fmt.Sprintf("clean/shards=%d", n), db, c, entities, ks)

				// Dirty a random ~30% of entities with fresh visits inside
				// the indexed horizon, replayed identically into both the
				// single DB's log position and the cluster's. Queries must
				// agree again — each side folds its own dirt lazily.
				var dirt []digitaltraces.VisitRecord
				for e := 0; e < tr.entities; e++ {
					if rng.Float64() > 0.3 {
						continue
					}
					h := rng.Intn(tr.horizonHours)
					dirt = append(dirt, digitaltraces.VisitRecord{
						Entity: fmt.Sprintf("e%03d", e),
						Venue:  digitaltraces.VenueName(rng.Intn(propSide * propSide)),
						Start:  digitaltraces.TimeAt(h),
						End:    digitaltraces.TimeAt(h + 1),
					})
				}
				if len(dirt) > 0 {
					if _, err := db.AddVisits(dirt); err != nil {
						t.Fatal(err)
					}
					if _, err := c.AddVisits(dirt); err != nil {
						t.Fatal(err)
					}
					comparePaths(t, fmt.Sprintf("dirty/shards=%d", n), db, c, entities, ks)
					// Re-sync the single DB for the next cluster size: fold
					// everything so the next Partition replay sees one state.
					if err := db.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
