package remote

// Live slot migration over the wire, and a local cluster's index file opened
// by a remote fleet (and refused at another shard count). The migration
// protocol ships state through the same Backend primitives the transport
// already serves (VisitsOf, AddVisits, Refresh), so the in-process property
// re-run against loopback shard servers is the acceptance bar: random slots
// move between HTTP shards while a query stream races, and no answer may ever
// diverge from the single-DB reference.
// The epoch piggyback is asserted too — after migrations every shard server
// must report the coordinator's final slot-map epoch, the signal a second,
// staler coordinator refuses to route on.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/internal/proptest"
)

// remoteClusterClients is remoteCluster, but keeps the typed clients so the
// test can inspect the piggybacked slot-map epoch per shard.
func remoteClusterClients(t *testing.T, n int, cfg shard.Config) (*shard.Cluster, []*Client) {
	t.Helper()
	clients := make([]*Client, n)
	backends := make([]shard.Backend, n)
	for i := 0; i < n; i++ {
		_, _, hs := newShardServer(t, ServerConfig{})
		clients[i] = dialTest(t, hs.URL, Options{})
		backends[i] = clients[i]
	}
	cfg.Backends = backends
	c, err := shard.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, clients
}

// TestRemoteMigrationExactness migrates random slots between loopback shard
// servers while a concurrent query stream compares every answer against the
// single-DB reference, then checks the epoch piggyback and a final
// three-way (migrated remote vs never-migrated local vs single) agreement.
func TestRemoteMigrationExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	log := proptest.RandomLog(rng, 40, 24)

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

	c, clients := remoteClusterClients(t, 4, shard.Config{})
	if _, err := c.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	local, err := shard.Partition(db, shard.Config{
		Shards:   4,
		NewShard: func(int) (*digitaltraces.DB, error) { return proptest.NewDB() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	for _, eng := range []*shard.Cluster{c, local} {
		if err := eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}

	queries := proptest.SampleQueries(rng, 40)
	ks := []int{1, 3, 10, 45}
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

	// Pre-generate the move list (the rng stays on the test goroutine), then
	// race the query stream against the migrations.
	moves := make([][2]int, 12)
	for i := range moves {
		moves[i] = [2]int{rng.Intn(shard.NumSlots), rng.Intn(4)}
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
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
				errc <- fmt.Errorf("remote TopK(%s,%d) mid-migration: %v", e.q, e.k, err)
				return
			}
			if len(got) != len(e.ms) {
				errc <- fmt.Errorf("remote TopK(%s,%d) mid-migration: %d matches, want %d", e.q, e.k, len(got), len(e.ms))
				return
			}
			for j := range got {
				if got[j] != e.ms[j] {
					errc <- fmt.Errorf("remote TopK(%s,%d) mid-migration: match %d = %+v, want %+v", e.q, e.k, j, got[j], e.ms[j])
					return
				}
			}
		}
	}()
	for _, mv := range moves {
		if err := c.MigrateSlot(mv[0], mv[1]); err != nil {
			t.Fatalf("MigrateSlot(%d→%d) over the wire: %v", mv[0], mv[1], err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent remote query diverged: %v", err)
	default:
	}

	// Every shard server must have been told the final epoch (the publish
	// pushes synchronously on loopback), and each client's piggybacked view
	// must agree — a stale coordinator reading these shards would fail its
	// epoch check instead of wrong-routing.
	want := c.SlotEpoch()
	if want == 0 {
		t.Fatal("migrations published no epoch")
	}
	for i, cl := range clients {
		if got := cl.SlotEpoch(); got != want {
			t.Fatalf("shard %d reports slot-map epoch %d, coordinator holds %d", i, got, want)
		}
	}

	// Final three-way agreement, including by-example.
	compareEngines(t, "post-migration", db, local, c, queries, ks)
}

// TestRemoteClusterShardCountReload saves a 4-shard local cluster's envelope
// and opens the same file on a 4-shard loopback-remote cluster — each section
// sent to its shard server (POST /shard/index) and opened there — which then
// answers bit-identically to the saver. An 8-shard remote fleet refuses the
// file, naming re-ingest, and once the log is re-ingested at 8 shards and
// built it answers bit-identically too.
func TestRemoteClusterShardCountReload(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	log := proptest.RandomLog(rng, 40, 24)

	c4, err := shard.NewCluster(shard.Config{
		Shards:   4,
		NewShard: func(int) (*digitaltraces.DB, error) { return proptest.NewDB() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c4.Close() })
	if _, err := c4.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := c4.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c4.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r4, _ := remoteClusterClients(t, 4, shard.Config{})
	t.Cleanup(func() { r4.Close() })
	if err := r4.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex local→remote over the wire: %v", err)
	}
	c8, _ := remoteClusterClients(t, 8, shard.Config{})
	if err := c8.OpenIndex(path); err == nil || !strings.Contains(err.Error(), "re-ingest") {
		t.Fatalf("OpenIndex 4→8: want a refusal naming re-ingest, got %v", err)
	}
	if _, err := c8.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := c8.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	queries := proptest.SampleQueries(rng, 40)
	for _, q := range queries {
		for _, k := range []int{1, 5, 45} {
			want, _, err := c4.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*shard.Cluster{"local→remote open": r4, "8-shard re-ingest": c8} {
				got, _, err := c.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, fmt.Sprintf("%s TopK(%s,%d)", name, q, k), got, want)
			}
		}
	}
}
