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
				// must agree again with each side folding its own dirt.
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
					// Re-sync the single DB for the next cluster size: fold
					// everything so the next replay sees one state.
					if err := db.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
				localC.Close()
				remoteC.Close()
			}
		})
	}
}

// FuzzRemotePullSchedule fuzzes the pull schedule against one remote stream:
// whatever (possibly tiny) want-size the coordinator asks for, from the
// fused open on, and whatever rising floors it sends, every batch must equal
// the local stream's under the same schedule (bound and liveness included),
// and the concatenated emission must be the local stream's full exact order
// cut where a match first falls below the floor of its pull — the positional
// buffering may never skip, duplicate or reorder a match.
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
		defer srv.Close()
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		c, err := Dial(hs.URL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// The full exact order, drained at floor 0.
		visits, full, b, err := shard.Local(db).OpenSearchEntity("e000", 1<<20)
		if err != nil || b.Live {
			t.Fatalf("draining: live=%v, %v", b.Live, err)
		}
		full.Close()
		exact := b.Matches
		// The floor schedule: 0 throughout, or rising through the list's
		// distinct degrees, step levels per round.
		var levels []float64
		for i := len(exact) - 1; i >= 0; i-- {
			if d := exact[i].Degree; len(levels) == 0 || d != levels[len(levels)-1] {
				levels = append(levels, d)
			}
		}
		step := int(floorByte % 4)
		floorAt := func(round int) float64 {
			if step == 0 || len(levels) == 0 {
				return 0
			}
			return levels[min(round*step, len(levels)-1)]
		}

		want := int(wantByte%16) + 1
		lst, lb, err := shard.Local(db).OpenSearch(visits, want, floorAt(0))
		if err != nil {
			t.Fatal(err)
		}
		defer lst.Close()
		rst, rb, err := c.OpenSearch(visits, want, floorAt(0))
		if err != nil {
			t.Fatal(err)
		}
		defer rst.Close()
		var remote []digitaltraces.Match
		for round := 0; ; round++ {
			label := fmt.Sprintf("schedule want=%d step=%d round %d", want, step, round)
			if round > 0 {
				var lerr, rerr error
				lb, lerr = lst.Pull(want, floorAt(round))
				rb, rerr = rst.Pull(want, floorAt(round))
				if lerr != nil || rerr != nil {
					t.Fatalf("%s: local %v, remote %v", label, lerr, rerr)
				}
			}
			sameMatches(t, label, rb.Matches, lb.Matches)
			if rb.Bound != lb.Bound || rb.Live != lb.Live {
				t.Fatalf("%s: (bound, live) remote (%v, %t), local (%v, %t)", label, rb.Bound, rb.Live, lb.Bound, lb.Live)
			}
			for _, m := range rb.Matches {
				if m.Degree < floorAt(round) {
					t.Fatalf("%s: %+v below the floor %v", label, m, floorAt(round))
				}
			}
			remote = append(remote, rb.Matches...)
			if !rb.Live {
				// Ended: exhausted, or the next match in exact order is
				// below the floor that ended it.
				if n := len(remote); n < len(exact) && exact[n].Degree >= floorAt(round) {
					t.Fatalf("%s: ended before %+v, at or above its floor %v", label, exact[n], floorAt(round))
				}
				break
			}
			if round > 10_000 {
				t.Fatal("remote stream never ended")
			}
		}
		sameMatches(t, fmt.Sprintf("schedule want=%d step=%d", want, step), remote, exact[:len(remote)])
	})
}
