package shard

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"digitaltraces"
)

const (
	citySide     = 8
	cityLevels   = 4
	cityEntities = 120
	cityDays     = 3
	cityHash     = 32
	citySeed     = 7
)

// testCity builds the reference single DB every cluster is compared against.
func testCity(t testing.TB) *digitaltraces.DB {
	t.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{
		Side: citySide, Levels: cityLevels, Entities: cityEntities, Days: cityDays, Seed: citySeed,
	}, digitaltraces.WithHashFunctions(cityHash))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testCluster partitions the same city into n shards.
func testCluster(t testing.TB, src *digitaltraces.DB, n int) *Cluster {
	t.Helper()
	c, err := Partition(src, Config{
		Shards: n,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(citySide, cityLevels, digitaltraces.WithHashFunctions(cityHash))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func requireSameMatches(t *testing.T, label string, got, want []digitaltraces.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d matches, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Entity != want[i].Entity || got[i].Degree != want[i].Degree {
			t.Fatalf("%s: match %d = %+v, want %+v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestClusterExactness is the acceptance invariant: for the same synthetic
// city and seed, a Cluster with N ∈ {1, 2, 4, 8} shards returns bit-identical
// top-k entities and degrees to a single DB — for entity queries, example
// queries, and batches.
func TestClusterExactness(t *testing.T) {
	db := testCity(t)
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"entity-0", "entity-3", "entity-17", "entity-42", "entity-85", "entity-119"}
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := testCluster(t, db, n)
			if err := c.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if c.NumEntities() != db.NumEntities() {
				t.Fatalf("cluster has %d entities, source %d", c.NumEntities(), db.NumEntities())
			}
			for _, q := range queries {
				for _, k := range []int{1, 5, 10} {
					want, wantStats, err := db.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, qs, err := c.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					requireSameMatches(t, fmt.Sprintf("TopK(%s,%d)", q, k), got, want)
					if qs.Checked < len(got) || qs.PE < 0 || qs.PE > 1 || qs.Elapsed <= 0 {
						t.Errorf("TopK(%s,%d) stats implausible: %+v", q, k, qs)
					}
					// A 1-shard cluster runs the same search over the same
					// candidates in the same order, so even the work is
					// bracketed by the single DB's: the shard's stream knows
					// no k, so it scores whole buckets where the single DB's
					// TopK bound-skips within them, and stops at the pull
					// that settles the answer.
					if lo, hi := wantStats.Checked, wantStats.Checked+wantStats.BoundSkipped; n == 1 && (qs.Checked < lo || qs.Checked > hi) {
						t.Errorf("TopK(%s,%d) Checked = %d, single DB scored %d and bound-skipped up to %d", q, k, qs.Checked, lo, hi)
					}
				}
			}
			// Query by example, fan-out over all shards with no self-exclusion.
			example, err := db.VisitsOf("entity-9")
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := db.TopKByExample(example, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.TopKByExample(example, 8)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, "TopKByExample", got, want)
			// Batch equals per-entity answers.
			batch, _, err := c.TopKBatch(queries, 5, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(queries) {
				t.Fatalf("batch returned %d results, want %d", len(batch), len(queries))
			}
			for _, q := range queries {
				want, _, err := db.TopK(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMatches(t, "TopKBatch/"+q, batch[q], want)
			}
		})
	}
}

// TestClusterConcurrentIngest drives scatter-gather queries while a writer
// lane streams new visits through the router (run with -race). After the
// storm quiesces, the same extra visits replayed into a fresh single DB must
// still produce bit-identical answers.
func TestClusterConcurrentIngest(t *testing.T) {
	db := testCity(t)
	c := testCluster(t, db, 4)
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// Extra visits within the indexed horizon, one batch per round, in a
	// fixed order so ordinal assignment is deterministic.
	const rounds = 12
	batches := make([][]digitaltraces.VisitRecord, rounds)
	for r := range batches {
		for j := 0; j < 3; j++ {
			batches[r] = append(batches[r], digitaltraces.VisitRecord{
				Entity: fmt.Sprintf("late-%d-%d", r, j),
				Venue:  digitaltraces.VenueName((r*7 + j) % (citySide * citySide)),
				Start:  digitaltraces.TimeAt(r % 20),
				End:    digitaltraces.TimeAt(r%20 + 2),
			})
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() { // single writer lane: arrival order stays deterministic
		defer wg.Done()
		for _, b := range batches {
			if _, err := c.AddVisits(b); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := fmt.Sprintf("entity-%d", (g*13+i)%cityEntities)
				ms, _, err := c.TopK(q, 5)
				if err != nil {
					errCh <- fmt.Errorf("TopK(%s): %w", q, err)
					return
				}
				for j := 1; j < len(ms); j++ {
					if ms[j].Degree > ms[j-1].Degree {
						errCh <- fmt.Errorf("TopK(%s) not sorted: %+v", q, ms)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Replay the same stream into the reference DB and compare, quiesced.
	for _, b := range batches {
		if _, err := db.AddVisits(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c.NumEntities() != db.NumEntities() {
		t.Fatalf("after ingest: cluster %d entities, source %d", c.NumEntities(), db.NumEntities())
	}
	for _, q := range []string{"entity-5", "entity-77", "late-0-0", "late-11-2"} {
		want, _, err := db.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, "post-ingest TopK "+q, got, want)
	}
}

// TestClusterMultiWriterRace: many writers race brand-new entities onto the
// shards (several landing on the same shard, with identical traces, i.e.
// guaranteed degree ties) while queries run — run with -race. Afterwards the
// registry, the shards and the merge must agree: every entity is queryable
// and tied same-shard entities come back in a deterministic order on
// repeated queries.
func TestClusterMultiWriterRace(t *testing.T) {
	db := testCity(t)
	c := testCluster(t, db, 4)
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 10
	var wg sync.WaitGroup
	errCh := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Identical trace for every racer: all pairwise degrees tie.
				name := fmt.Sprintf("racer-%d-%d", w, i)
				if err := c.AddVisit(name, "venue-1", digitaltraces.TimeAt(5), digitaltraces.TimeAt(7)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, _, err := c.TopK(fmt.Sprintf("entity-%d", (w*11+i)%cityEntities), 5); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got, want := c.NumEntities(), cityEntities+writers*perWriter; got != want {
		t.Fatalf("NumEntities = %d, want %d", got, want)
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Every racer ties with every other racer; repeated queries must return
	// the same deterministic tie order now that ingest has quiesced.
	first, _, err := c.TopK("racer-0-0", 10)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, _, err := c.TopK("racer-0-0", 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, "repeat query", again, first)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	grid := func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(citySide, cityLevels)
	}
	if _, err := NewCluster(Config{Shards: 0, NewShard: grid}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewCluster(Config{Shards: 2}); err == nil {
		t.Error("nil NewShard accepted")
	}
	// A shard without an epoch cannot join a cluster.
	h := digitaltraces.NewHierarchy(2).AddPath("a", "v1").AddPath("a", "v2")
	if _, err := NewCluster(Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewDB(h)
	}}); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("epoch-less shards: err = %v, want epoch error", err)
	}
	// Mismatched epochs across shards are rejected.
	if _, err := NewCluster(Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewDB(h, digitaltraces.WithEpoch(time.Unix(int64(i)*3600, 0).UTC()))
	}}); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Errorf("mismatched epochs: err = %v, want epoch error", err)
	}
	// Mismatched time units are rejected.
	if _, err := NewCluster(Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewDB(h,
			digitaltraces.WithEpoch(time.Unix(0, 0).UTC()),
			digitaltraces.WithTimeUnit(time.Duration(i+1)*time.Hour))
	}}); err == nil || !strings.Contains(err.Error(), "unit") {
		t.Errorf("mismatched units: err = %v, want unit error", err)
	}
	// Partition rejects factories whose shards discretize differently from
	// the source (here: source anchored off the shards' Unix epoch).
	src, err := digitaltraces.NewGridDB(4, 3, digitaltraces.WithEpoch(time.Date(2020, 1, 1, 10, 30, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddVisit("a", "venue-0", time.Date(2020, 1, 1, 10, 30, 0, 0, time.UTC), time.Date(2020, 1, 1, 11, 30, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(src, Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(4, 3)
	}}); err == nil || !strings.Contains(err.Error(), "source epoch") {
		t.Errorf("Partition with mismatched epoch: err = %v, want source-epoch error", err)
	}

	// Pre-populated shards are rejected: the router must see every entity.
	if _, err := NewCluster(Config{Shards: 1, NewShard: func(i int) (*digitaltraces.DB, error) {
		db, err := digitaltraces.NewGridDB(4, 3)
		if err != nil {
			return nil, err
		}
		return db, db.AddVisit("stowaway", "venue-0", digitaltraces.TimeAt(0), digitaltraces.TimeAt(1))
	}}); err == nil || !strings.Contains(err.Error(), "pre-populated") {
		t.Errorf("pre-populated shard: err = %v, want pre-populated error", err)
	}
}

func TestClusterErrors(t *testing.T) {
	db := testCity(t)
	c := testCluster(t, db, 3)
	if _, _, err := c.TopK("ghost", 3); err == nil || !strings.Contains(err.Error(), "unknown entity") {
		t.Errorf("unknown entity: %v", err)
	}
	if _, _, err := c.TopK("entity-0", 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := c.TopKBatch(nil, 3, 2); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := c.TopKBatch([]string{"entity-0", "ghost"}, 3, 2); err == nil {
		t.Error("batch with unknown entity accepted")
	}
	if _, _, err := c.TopKByExample([]digitaltraces.Visit{{
		Venue: "atlantis", Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1),
	}}, 3); err == nil {
		t.Error("unknown venue in example accepted")
	}
	// An empty cluster has nothing to index or query.
	empty, err := NewCluster(Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(4, 3)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.BuildIndex(); err == nil {
		t.Error("empty cluster BuildIndex accepted")
	}
	if _, _, err := empty.TopKByExample([]digitaltraces.Visit{{
		Venue: "venue-0", Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1),
	}}, 3); err == nil {
		t.Error("query on empty cluster accepted")
	}
}

// TestClusterAddVisitsPartialFailure pins the documented bulk-ingest
// semantics: per-shard prefixes are kept, the total stored count is
// returned, and the error names the smallest failing index in the caller's
// slice.
func TestClusterAddVisitsPartialFailure(t *testing.T) {
	c, err := NewCluster(Config{Shards: 2, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(4, 3)
	}})
	if err != nil {
		t.Fatal(err)
	}
	visits := []digitaltraces.VisitRecord{
		{Entity: "a", Venue: "venue-0", Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(2)},
		{Entity: "b", Venue: "venue-1", Start: digitaltraces.TimeAt(1), End: digitaltraces.TimeAt(3)},
		{Entity: "a", Venue: "atlantis", Start: digitaltraces.TimeAt(2), End: digitaltraces.TimeAt(4)}, // fails
		{Entity: "b", Venue: "venue-2", Start: digitaltraces.TimeAt(3), End: digitaltraces.TimeAt(5)},
	}
	n, err := c.AddVisits(visits)
	if err == nil {
		t.Fatal("bad venue accepted")
	}
	if !strings.Contains(err.Error(), "visit 2") || !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("error %q does not name failing index 2 and venue", err)
	}
	// a's shard kept 1 visit (the prefix before the failure); b's shard is
	// independent and kept both of its records → 3 stored in total.
	if n != 3 {
		t.Errorf("stored %d visits, want 3", n)
	}
	va, err := c.shards[c.slotmap().Owner("a")].VisitsOf("a")
	if err != nil || len(va) != 1 {
		t.Errorf("a has %d visits (%v), want 1", len(va), err)
	}
	vb, err := c.shards[c.slotmap().Owner("b")].VisitsOf("b")
	if err != nil || len(vb) != 2 {
		t.Errorf("b has %d visits (%v), want 2", len(vb), err)
	}
}

func TestClusterShardStats(t *testing.T) {
	db := testCity(t)
	c := testCluster(t, db, 4)
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	stats := c.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats has %d entries", len(stats))
	}
	entities, nodes := 0, 0
	for i, s := range stats {
		if s.Shard != i {
			t.Errorf("stat %d has Shard=%d", i, s.Shard)
		}
		if s.Entities == 0 || s.Index.Entities != s.Entities {
			t.Errorf("shard %d: %d routed entities, %d indexed", i, s.Entities, s.Index.Entities)
		}
		entities += s.Entities
		nodes += s.Index.Nodes
	}
	if entities != cityEntities {
		t.Errorf("shard entity counts sum to %d, want %d", entities, cityEntities)
	}
	agg := c.IndexStats()
	if agg.Entities != cityEntities || agg.Nodes != nodes || agg.MemoryBytes <= 0 {
		t.Errorf("aggregate IndexStats %+v inconsistent with per-shard sums", agg)
	}
	if c.NumVenues() != citySide*citySide || c.Levels() != cityLevels {
		t.Errorf("cluster shape: %d venues, %d levels", c.NumVenues(), c.Levels())
	}
}

// TestRouterDeterminism pins the routing function: stable across runs and
// uniform enough that no shard is starved on a realistic population.
func TestRouterDeterminism(t *testing.T) {
	sm := DefaultSlotMap(8)
	if sm.Owner("entity-42") != DefaultSlotMap(8).Owner("entity-42") {
		t.Fatal("router not deterministic")
	}
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[sm.Owner(fmt.Sprintf("entity-%d", i))]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d received no entities out of 1000", s)
		}
	}
}

// TestRefreshBeyondHorizon: a visit past a shard's indexed horizon is
// absorbed by Refresh rebuilding just that shard — no error surfaces and the
// entity is immediately queryable.
func TestRefreshBeyondHorizon(t *testing.T) {
	db := testCity(t)
	c := testCluster(t, db, 2)
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	far := digitaltraces.TimeAt(cityDays*24 + 1000)
	if err := c.AddVisit("wanderer", "venue-0", far, far.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(); err != nil {
		t.Fatalf("Refresh = %v, want self-healing per-shard rebuild", err)
	}
	if _, _, err := c.TopK("wanderer", 3); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDirtyAggregationAndAutoRefresh: IndexStats sums per-shard dirty
// counts; shards built with digitaltraces.WithAutoRefresh fold their own
// partitions' dirt in the background; Close stops every shard's goroutine
// and is idempotent.
func TestClusterDirtyAggregationAndAutoRefresh(t *testing.T) {
	c, err := NewCluster(Config{Shards: 3, NewShard: func(i int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(citySide, cityLevels,
			digitaltraces.WithHashFunctions(cityHash),
			digitaltraces.WithAutoRefresh(1, 0))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var visits []digitaltraces.VisitRecord
	for e := 0; e < 30; e++ {
		visits = append(visits, digitaltraces.VisitRecord{
			Entity: fmt.Sprintf("entity-%d", e), Venue: "venue-0",
			Start: digitaltraces.TimeAt(e % 20), End: digitaltraces.TimeAt(e%20 + 2),
		})
	}
	if _, err := c.AddVisits(visits); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// New dirt lands on every shard; the aggregate must sum the per-shard
	// counts until the background policies fold it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.IndexStats()
		sum := 0
		for _, ss := range c.ShardStats() {
			sum += ss.Index.DirtyCount
		}
		if st.DirtyCount != sum {
			t.Fatalf("aggregate dirty %d != shard sum %d", st.DirtyCount, sum)
		}
		if st.DirtyCount == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-refresh never drained the cluster: %d dirty", st.DirtyCount)
		}
		time.Sleep(2 * time.Millisecond)
	}
	gen := c.IndexStats().Generation
	if _, err := c.AddVisits(visits[:9]); err != nil {
		t.Fatal(err)
	}
	for c.IndexStats().DirtyCount > 0 || c.IndexStats().Generation == gen {
		if time.Now().After(deadline) {
			t.Fatal("auto-refresh never folded the second batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
