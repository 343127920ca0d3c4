package remote

// The acceptance bar for the network transport: the PR 6 exactness property
// suite, re-run with every shard behind a loopback HTTP server. Over random
// adversarial visit logs (clones forcing exact degree ties, strangers
// forcing zero-degree boundaries, post-build dirt), the remote cluster, the
// in-process cluster and a single DB must return bit-identical answers — tie
// order included — for N ∈ {1, 2, 4, 8} shards. Nothing in the wire protocol, the positional
// pull buffering or the client's state caching may perturb a single bit.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/internal/proptest"
)

// remoteCluster builds an n-shard cluster whose every shard is a loopback
// remote server, plus teardown hooks registered on t.
func remoteCluster(t *testing.T, n int, cfg shard.Config) *shard.Cluster {
	t.Helper()
	backends := make([]shard.Backend, n)
	for i := 0; i < n; i++ {
		_, _, hs := newShardServer(t, ServerConfig{})
		backends[i] = dialTest(t, hs.URL, Options{})
	}
	cfg.Backends = backends
	c, err := shard.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// compareEngines asserts single ≡ local cluster ≡ remote cluster for one
// query set, bit-for-bit.
func compareEngines(t *testing.T, label string, db *digitaltraces.DB, local, remote *shard.Cluster, entities []string, ks []int) {
	t.Helper()
	for _, q := range entities {
		for _, k := range ks {
			want, _, err := db.TopK(q, k)
			if err != nil {
				t.Fatalf("%s: single TopK(%s,%d): %v", label, q, k, err)
			}
			lms, _, err := local.TopK(q, k)
			if err != nil {
				t.Fatalf("%s: local TopK(%s,%d): %v", label, q, k, err)
			}
			rms, _, err := remote.TopK(q, k)
			if err != nil {
				t.Fatalf("%s: remote TopK(%s,%d): %v", label, q, k, err)
			}
			sameMatches(t, fmt.Sprintf("%s: local vs single TopK(%s,%d)", label, q, k), lms, want)
			sameMatches(t, fmt.Sprintf("%s: remote vs single TopK(%s,%d)", label, q, k), rms, want)
		}
		// Query-by-example through all three engines with the entity's own
		// visits (the densest overlap structure available).
		visits, err := db.VisitsOf(q)
		if err != nil {
			t.Fatal(err)
		}
		k := ks[len(ks)-1]
		want, _, err := db.TopKByExample(visits, k)
		if err != nil {
			t.Fatal(err)
		}
		lms, _, err := local.TopKByExample(visits, k)
		if err != nil {
			t.Fatal(err)
		}
		rms, _, err := remote.TopKByExample(visits, k)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, fmt.Sprintf("%s: local vs single ByExample(%s,%d)", label, q, k), lms, want)
		sameMatches(t, fmt.Sprintf("%s: remote vs single ByExample(%s,%d)", label, q, k), rms, want)
	}
}

// TestRemoteGatherExactnessProperty is the randomized acceptance property
// for the transport. Each trial builds one random log, replays it into a
// single DB, an in-process cluster and a loopback-remote cluster of N
// shards, compares every query path bit-for-bit, then dirties a random
// fraction of entities and compares again (each engine folds the dirt lazily
// on its own side of the wire).
func TestRemoteGatherExactnessProperty(t *testing.T) {
	trials := []struct {
		seed         int64
		entities     int
		horizonHours int
	}{
		{seed: 21, entities: 24, horizonHours: 24},
		{seed: 22, entities: 60, horizonHours: 12}, // dense: short horizon, many collisions
	}
	for _, tr := range trials {
		tr := tr
		t.Run(fmt.Sprintf("seed=%d/entities=%d", tr.seed, tr.entities), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(tr.seed))
			log := proptest.RandomLog(rng, tr.entities, tr.horizonHours)

			db, err := proptest.NewDB()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			if _, err := db.AddVisits(log); err != nil {
				t.Fatal(err)
			}
			if err := db.BuildIndex(); err != nil {
				t.Fatal(err)
			}

			entities := proptest.SampleQueries(rng, tr.entities)
			ks := []int{1, 3, 10, tr.entities + 5}

			for _, n := range []int{1, 2, 4, 8} {
				localC, err := shard.Partition(db, shard.Config{
					Shards:   n,
					NewShard: func(int) (*digitaltraces.DB, error) { return proptest.NewDB() },
				})
				if err != nil {
					t.Fatal(err)
				}
				remoteC := remoteCluster(t, n, shard.Config{})
				if _, err := remoteC.AddVisits(db.AllVisits()); err != nil {
					t.Fatal(err)
				}
				for _, c := range []*shard.Cluster{localC, remoteC} {
					if err := c.BuildIndex(); err != nil {
						t.Fatal(err)
					}
				}
				compareEngines(t, fmt.Sprintf("clean/shards=%d", n), db, localC, remoteC, entities, ks)

				// Dirty a random ~30% of entities with fresh in-horizon
				// visits, replayed identically into every engine; answers
				// must agree again with each side folding its own writes.
				if dirt := proptest.Dirt(rng, tr.entities, tr.horizonHours); len(dirt) > 0 {
					if _, err := db.AddVisits(dirt); err != nil {
						t.Fatal(err)
					}
					for _, c := range []*shard.Cluster{localC, remoteC} {
						if _, err := c.AddVisits(dirt); err != nil {
							t.Fatal(err)
						}
					}
					compareEngines(t, fmt.Sprintf("dirty/shards=%d", n), db, localC, remoteC, entities, ks)
				}
				localC.Close()
				remoteC.Close()
			}
		})
	}
}

// sameRanked requires two rank replies to agree bit for bit: matches,
// visits, bound, cap, work and generation.
func sameRanked(t *testing.T, label string, got, want digitaltraces.Ranked) {
	t.Helper()
	sameMatches(t, label, got.Matches, want.Matches)
	if len(got.Visits) != len(want.Visits) || got.Bound != want.Bound || got.Capped != want.Capped || got.Checked != want.Checked || got.Generation != want.Generation {
		t.Fatalf("%s: remote (%d visits, bound %v, capped %t, checked %d, gen %d), local (%d visits, bound %v, capped %t, checked %d, gen %d)", label,
			len(got.Visits), got.Bound, got.Capped, got.Checked, got.Generation, len(want.Visits), want.Bound, want.Capped, want.Checked, want.Generation)
	}
	for i := range got.Visits {
		if g, w := got.Visits[i], want.Visits[i]; g.Venue != w.Venue || !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Fatalf("%s: visit %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// FuzzRemotePullSchedule fuzzes a schedule of rank calls — by entity and by
// example, under fuzzed want sizes, floors on and between the exact order's
// degrees, random slot masks and the ties flag — against one remote shard:
// every reply must equal the in-process shard's under the same arguments,
// and both must be the exact order restricted to the mask at or above the
// floor, cut at want and, under ties, completed through the last degree.
func FuzzRemotePullSchedule(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(17), uint8(0))
	f.Add(int64(4), uint8(2), uint8(1))
	f.Add(int64(5), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, wantByte, floorByte uint8) {
		db, err := proptest.NewDB()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(seed))
		log := proptest.RandomLog(rng, 20, 12)
		if _, err := db.AddVisits(log); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(db, ServerConfig{})
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		c, err := Dial(hs.URL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// The full exact order, e000 included: a query by example at floor 0
		// over every slot.
		visits, err := db.VisitsOf("e000")
		if err != nil {
			t.Fatal(err)
		}
		all := shard.DefaultSlotMap(1).Owned(0)
		full, err := shard.Local(db).Rank(shard.RankRequest{Visits: visits, Want: 1 << 20, Owned: all})
		if err != nil {
			t.Fatal(err)
		}
		exact := full.Matches
		for round := 0; round < 6; round++ {
			req := shard.RankRequest{Want: 1 + int(wantByte%16) + rng.Intn(3), Owned: all, Ties: (int(floorByte)>>2+round)%2 == 1}
			if round%2 == 0 {
				req.Entity = "e000"
			} else {
				req.Visits = visits
			}
			if step := int(floorByte % 4); step > 0 && len(exact) > 0 {
				j := min(round*step+rng.Intn(3), len(exact)-1)
				req.Floor = exact[j].Degree
				if rng.Intn(2) == 0 && j+1 < len(exact) {
					req.Floor = (exact[j].Degree + exact[j+1].Degree) / 2
				}
			}
			if rng.Intn(2) == 0 {
				for s := range shard.NumSlots {
					if rng.Intn(3) == 0 {
						req.Owned[s/64] &^= 1 << (s % 64)
					}
				}
			}
			label := fmt.Sprintf("round %d %+v", round, req)
			local, lerr := shard.Local(db).Rank(req)
			remote, rerr := c.Rank(req)
			if lerr != nil || rerr != nil {
				t.Fatalf("%s: local %v, remote %v", label, lerr, rerr)
			}
			sameRanked(t, label, remote, local)
			var expect []digitaltraces.Match
			for _, m := range exact {
				if m.Degree < req.Floor || !req.Owned.Has(shard.SlotOf(m.Entity)) || req.Entity == m.Entity {
					continue
				}
				if n := len(expect); n >= req.Want && !(req.Ties && m.Degree == expect[n-1].Degree) {
					break
				}
				expect = append(expect, m)
			}
			sameMatches(t, label+" against the exact order", remote.Matches, expect)
		}
	})
}
