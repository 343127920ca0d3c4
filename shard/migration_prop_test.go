package shard

// Randomized exactness property for live slot migration: over the same
// adversarial visit logs as the scatter-gather suite, random slots are
// migrated to random shards while a query stream hammers the cluster — every
// answer must stay bit-identical to the single-DB reference before, during
// and after each move, for N ∈ {2, 4, 8} shards. A second phase migrates
// while a concurrent ingester streams fresh visits through the per-slot
// fence; after both settle, the pruned gather, the full-merge reference and a single
// DB fed the identical log must again agree bit-for-bit. Run under -race
// this is the acceptance check that the ingest fence, the atomic map publish
// and the per-pull ownership filter compose into "never a non-exact answer".

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"digitaltraces"
	"digitaltraces/shard/internal/proptest"
)

// migrationMoves pre-generates a deterministic (slot, target) move list —
// the rng must stay on the test goroutine, so randomness is drawn before any
// worker starts.
func migrationMoves(rng *rand.Rand, shards, count int) [][2]int {
	moves := make([][2]int, count)
	for i := range moves {
		moves[i] = [2]int{rng.Intn(NumSlots), rng.Intn(shards)}
	}
	return moves
}

func TestMigrationExactnessProperty(t *testing.T) {
	trials := []struct {
		seed         int64
		entities     int
		horizonHours int
	}{
		{seed: 41, entities: 24, horizonHours: 24},
		{seed: 42, entities: 60, horizonHours: 12}, // dense: short horizon, many collisions
	}
	for _, tr := range trials {
		tr := tr
		t.Run(fmt.Sprintf("seed=%d/entities=%d", tr.seed, tr.entities), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(tr.seed))
			log := proptest.RandomLog(rng, tr.entities, tr.horizonHours)

			db := propDB(t)
			if _, err := db.AddVisits(log); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildIndex(); err != nil {
				t.Fatal(err)
			}

			queries := proptest.SampleQueries(rng, tr.entities)
			ks := []int{1, 3, 10, tr.entities + 5}

			for _, n := range []int{2, 4, 8} {
				c := propCluster(t, db, n)
				if err := c.BuildIndex(); err != nil {
					t.Fatal(err)
				}

				// Phase 1 — frozen data, live queries racing live migration.
				// Migration moves state but never changes it, so the expected
				// answers are fixed and every concurrent answer must match
				// them bit-for-bit, whichever map the query pinned.
				type expectation struct {
					q  string
					k  int
					ms []digitaltraces.Match
				}
				var exp []expectation
				for _, q := range queries {
					for _, k := range ks {
						ms, _, err := db.TopK(q, k)
						if err != nil {
							t.Fatal(err)
						}
						exp = append(exp, expectation{q, k, ms})
					}
				}
				moves := migrationMoves(rng, n, 16)
				stop := make(chan struct{})
				errc := make(chan error, 1)
				report := func(err error) {
					select {
					case errc <- err:
					default:
					}
				}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						e := exp[i%len(exp)]
						got, _, err := c.TopK(e.q, e.k)
						if err != nil {
							report(fmt.Errorf("TopK(%s,%d) mid-migration: %v", e.q, e.k, err))
							return
						}
						if len(got) != len(e.ms) {
							report(fmt.Errorf("TopK(%s,%d) mid-migration: %d matches, want %d", e.q, e.k, len(got), len(e.ms)))
							return
						}
						for j := range got {
							if got[j].Entity != e.ms[j].Entity || got[j].Degree != e.ms[j].Degree {
								report(fmt.Errorf("TopK(%s,%d) mid-migration: match %d = %+v, want %+v", e.q, e.k, j, got[j], e.ms[j]))
								return
							}
						}
					}
				}()
				for _, mv := range moves {
					if err := c.MigrateSlot(mv[0], mv[1]); err != nil {
						t.Fatalf("MigrateSlot(%d→%d): %v", mv[0], mv[1], err)
					}
				}
				// A planner pass through the same machinery, also under load.
				if _, err := c.Rebalance(4); err != nil {
					t.Fatalf("Rebalance: %v", err)
				}
				close(stop)
				wg.Wait()
				select {
				case err := <-errc:
					t.Fatalf("shards=%d: concurrent query diverged: %v", n, err)
				default:
				}
				comparePaths(t, fmt.Sprintf("post-migration/shards=%d", n), db, c, queries, ks)

				// Phase 2 — live ingest racing live migration. Batches are
				// pre-generated (the rng stays on this goroutine), streamed
				// into the cluster while slots move — the per-slot fence
				// decides, per visit, whether the old or new owner stores it —
				// then replayed into the reference DB; all three paths must
				// agree again.
				var batches [][]digitaltraces.VisitRecord
				for b := 0; b < 6; b++ {
					if d := proptest.Dirt(rng, tr.entities, tr.horizonHours); len(d) > 0 {
						batches = append(batches, d)
					}
				}
				moves = migrationMoves(rng, n, 12)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, b := range batches {
						if _, err := c.AddVisits(b); err != nil {
							report(fmt.Errorf("AddVisits mid-migration: %v", err))
							return
						}
					}
				}()
				for _, mv := range moves {
					if err := c.MigrateSlot(mv[0], mv[1]); err != nil {
						t.Fatalf("MigrateSlot(%d→%d): %v", mv[0], mv[1], err)
					}
				}
				wg.Wait()
				select {
				case err := <-errc:
					t.Fatalf("shards=%d: %v", n, err)
				default:
				}
				for _, b := range batches {
					if _, err := db.AddVisits(b); err != nil {
						t.Fatal(err)
					}
				}
				comparePaths(t, fmt.Sprintf("post-ingest-migration/shards=%d", n), db, c, queries, ks)
				// Fold the reference so the next cluster size replays one state.
				if err := db.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
