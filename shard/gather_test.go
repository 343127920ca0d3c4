package shard

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/internal/mobility"
	"digitaltraces/internal/obs"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// countingBackend counts the Rank calls its shard answers.
type countingBackend struct {
	Backend
	ranks atomic.Int64
}

func (b *countingBackend) Rank(req RankRequest) (digitaltraces.Ranked, error) {
	b.ranks.Add(1)
	return b.Backend.Rank(req)
}

// twinClusters builds an empty 2-shard cluster over counting local backends
// with a trace ring, and the single DB every answer is checked against.
func twinClusters(t *testing.T) (*Cluster, []*countingBackend, *digitaltraces.DB) {
	t.Helper()
	backends := make([]*countingBackend, 2)
	cfg := Config{TraceSize: 16}
	for i := range backends {
		backends[i] = &countingBackend{Backend: Local(propDB(t))}
		cfg.Backends = append(cfg.Backends, backends[i])
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	db := propDB(t)
	t.Cleanup(func() { db.Close() })
	return c, backends, db
}

// namesIn returns n names "<prefix><i>" whose slots keep: the test's handle on
// placement.
func namesIn(prefix string, n int, keep func(slot int) bool) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if name := fmt.Sprintf("%s%d", prefix, i); keep(SlotOf(name)) {
			out = append(out, name)
		}
	}
	return out
}

// stay is a visit record at venue v over hours [from, to) since the epoch.
func stay(entity string, v, from, to int) digitaltraces.VisitRecord {
	return digitaltraces.VisitRecord{
		Entity: entity,
		Venue:  fmt.Sprintf("venue-%d", v),
		Start:  time.Unix(0, 0).UTC().Add(time.Duration(from) * time.Hour),
		End:    time.Unix(0, 0).UTC().Add(time.Duration(to) * time.Hour),
	}
}

// ingestBoth writes recs to the cluster and the single DB alike, indexed
// when it returns.
func ingestBoth(t *testing.T, c *Cluster, db *digitaltraces.DB, recs []digitaltraces.VisitRecord) {
	t.Helper()
	for _, e := range []digitaltraces.Engine{c, db} {
		if n, err := e.AddVisits(recs); err != nil || n != len(recs) {
			t.Fatalf("ingest stored %d of %d: %v", n, len(recs), err)
		}
		if err := e.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
}

// lastRow returns the row the last traced query holds for shard.
func lastRow(t *testing.T, c *Cluster, shard int) obs.ShardTrace {
	t.Helper()
	snap := c.Tracer().Snapshot() // newest first
	if len(snap) == 0 {
		t.Fatal("no query traced")
	}
	for _, r := range snap[0].Shards {
		if r.Shard == shard {
			return r
		}
	}
	t.Fatalf("the last trace has no row for shard %d: %+v", shard, snap[0])
	return obs.ShardTrace{}
}

// TestTieAcrossCapAfterMigration: a degree tie straddles a migration target's
// (k+1)-th entry, and its local IDs disagree with the global order there —
// its own entities hold the low local IDs, the shipped ones arrived first in
// the cluster. The ship carried their global ordinals, which the target ranks
// by, so its first k+1 are the shipped ones, its capped reply is k+1 matches,
// not the whole tie, and the answer is the single DB's — also in a fresh
// cluster the migrated one's envelope opens into.
func TestTieAcrossCapAfterMigration(t *testing.T) {
	const k = 3
	c, backends, db := twinClusters(t)
	// The moved slot starts on shard 0; the target's own entities and the
	// query live on shard 1 outside it.
	moved := SlotOf(namesIn("m", 1, func(s int) bool { return c.slotmap().assign[s] == 0 })[0])
	shipped := namesIn("m", k+1, func(s int) bool { return s == moved })
	own := namesIn("t", k+1, func(s int) bool { return c.slotmap().assign[s] == 1 })
	query := namesIn("q", 1, func(s int) bool { return c.slotmap().assign[s] == 1 })[0]
	var recs []digitaltraces.VisitRecord
	for _, e := range append(append(shipped, own...), query) {
		recs = append(recs, stay(e, 0, 1, 4)) // one tie: every entity the query's twin
	}
	ingestBoth(t, c, db, recs)
	if err := c.MigrateSlot(moved, 1); err != nil {
		t.Fatal(err)
	}

	// The fixture: the target registered its own entities before the
	// shipped ones (AllVisits lists them in local ID order), while the
	// shipped ones arrived first in the cluster.
	if first := backends[1].Backend.(local).AllVisits()[0].Entity; first != own[0] {
		t.Fatalf("fixture: the target's first local ID is %s, want its own %s", first, own[0])
	}
	visits, err := db.VisitsOf(query)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := backends[1].Backend.Rank(RankRequest{Visits: visits, Want: k + 1, Owned: c.slotmap().Owned(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range capped.Matches {
		if m.Entity != shipped[i] {
			t.Fatalf("the target ranks %v first, want the shipped %v by their global ordinals", capped.Matches, shipped)
		}
	}

	want, _, err := db.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "after the migration", got, want)
	if want[0].Entity != shipped[0] {
		t.Fatalf("fixture: the single DB answers %v, not the shipped entities %v", want, shipped)
	}
	if row := lastRow(t, c, 1); row.Pulled != k+1 {
		t.Fatalf("the target returned %d matches, want its cap of k+1 = %d", row.Pulled, k+1)
	}

	// A fresh cluster the envelope opens into reads the same ordinals off
	// the images, the source's stale copies included, and answers alike.
	opened, _, _ := twinClusters(t)
	if err := opened.OpenIndex(saveMapped(t, c)); err != nil {
		t.Fatal(err)
	}
	if got, want := opened.NumEntities(), db.NumEntities(); got != want {
		t.Fatalf("the opened cluster counts %d entities, the single DB %d", got, want)
	}
	if got, _, err = opened.TopK(query, k); err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "opened after the migration", got, want)
	if row := lastRow(t, opened, 1); row.Pulled != k+1 {
		t.Fatalf("the opened target returned %d matches, want its cap of k+1 = %d", row.Pulled, k+1)
	}
}

// TestForeignCopiesAskedOnce: a migration's source keeps more than k+1 stale
// copies of the entities it surrendered, ranked above everything it still
// owns — the shipped entities have since had writes that lowered their
// degree on their new owner. The ownership mask keeps the stale copies out of
// the source's reply and out of its cap, so its owned entities still answer,
// the answer is the single DB's, and the source is asked once.
func TestForeignCopiesAskedOnce(t *testing.T) {
	const k = 3
	c, backends, db := twinClusters(t)
	moved := SlotOf(namesIn("f", 1, func(s int) bool { return c.slotmap().assign[s] == 0 })[0])
	stale := namesIn("f", k+3, func(s int) bool { return s == moved })
	owned := namesIn("o", k+1, func(s int) bool { return s != moved && c.slotmap().assign[s] == 0 })
	query := namesIn("q", 1, func(s int) bool { return c.slotmap().assign[s] == 1 })[0]
	var recs []digitaltraces.VisitRecord
	for _, e := range stale {
		recs = append(recs, stay(e, 0, 1, 6)) // the query's twin
	}
	for _, e := range owned {
		recs = append(recs, stay(e, 0, 1, 3)) // a partial overlap
	}
	recs = append(recs, stay(query, 0, 1, 6))
	ingestBoth(t, c, db, recs)
	if err := c.MigrateSlot(moved, 1); err != nil {
		t.Fatal(err)
	}
	var later []digitaltraces.VisitRecord
	for _, e := range stale {
		later = append(later, stay(e, 15, 10, 60)) // far from the query: the degree drops
	}
	ingestBoth(t, c, db, later)

	want, _, err := db.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	if want[0].Entity != owned[0] {
		t.Fatalf("fixture: the single DB answers %v, not the source's owned entities %v", want, owned)
	}
	before := backends[0].ranks.Load()
	got, _, err := c.TopK(query, k)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "with stale copies on the source", got, want)
	if n := backends[0].ranks.Load() - before; n != 1 {
		t.Fatalf("the source was asked %d times", n)
	}
	if row := lastRow(t, c, 0); row.Pulled != k+1 {
		t.Fatalf("the source's row %+v: want its k+1 owned entities from one call", row)
	}
}

// TestLongStayRoundTrips: a stay is as long as the visits it coalesces, so
// 8 193 back-to-back one-hour visits come back from VisitsOf as one stay of
// 8 193 units. Every path that feeds a stay back in must take it: the home
// shard's visits asked of its sibling by example, a slot migration, a
// partition of the single DB, and the single DB's own query by example.
func TestLongStayRoundTrips(t *testing.T) {
	const k, hours = 3, 8193
	c, _, db := twinClusters(t)
	long := namesIn("long", 1, func(s int) bool { return c.slotmap().assign[s] == 0 })[0]
	var recs []digitaltraces.VisitRecord
	for h := range hours {
		recs = append(recs, stay(long, 0, h, h+1))
	}
	for i, e := range append(namesIn("near", 2, func(s int) bool { return c.slotmap().assign[s] == 0 }),
		namesIn("far", 2, func(s int) bool { return c.slotmap().assign[s] == 1 })...) {
		recs = append(recs, stay(e, 0, 10*i, 10*i+5+i))
	}
	ingestBoth(t, c, db, recs)

	want, _, err := db.TopK(long, k)
	if err != nil {
		t.Fatal(err)
	}
	visits, err := db.VisitsOf(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 1 {
		t.Fatalf("fixture: VisitsOf returned %d stays, want the one coalesced stay", len(visits))
	}
	byExample, _, err := db.TopKByExample(visits, k+1)
	if err != nil {
		t.Fatalf("the single DB by example of its own stay: %v", err)
	}
	if byExample[0].Entity != long {
		t.Fatalf("by example: %v, want %s first (itself)", byExample, long)
	}
	requireSameMatches(t, "by example, itself left out", byExample[1:], want)
	got, _, err := c.TopK(long, k)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	requireSameMatches(t, "cluster", got, want)
	if err := c.MigrateSlot(SlotOf(long), 1); err != nil {
		t.Fatalf("migrating the long stay's slot: %v", err)
	}
	if got, _, err = c.TopK(long, k); err != nil {
		t.Fatalf("cluster after the migration: %v", err)
	}
	requireSameMatches(t, "cluster after the migration", got, want)
	p := propCluster(t, db, 2)
	t.Cleanup(func() { p.Close() })
	if got, _, err = p.TopK(long, k); err != nil {
		t.Fatalf("partitioned: %v", err)
	}
	requireSameMatches(t, "partitioned", got, want)
}

// holdingBackend holds a batch that hold picks at the shard's door until
// release closes, signalling held once it waits: a later batch then lands on
// the shard first.
type holdingBackend struct {
	Backend
	hold          func([]digitaltraces.VisitRecord) bool
	held, release chan struct{}
}

func (b *holdingBackend) AddKeyedVisits(visits []digitaltraces.VisitRecord, keys []uint32) (int, error) {
	if b.hold(visits) {
		close(b.held)
		<-b.release
	}
	return b.Backend.AddKeyedVisits(visits, keys)
}

// TestRacingIngestIsExact: batch A registers its entities with the
// coordinator before batch B does, but B lands on their shard first, so the
// shard gives B's entities the lower local IDs. A degree tie spans both
// batches and the shard's cap falls inside it. The shard ranks by the global
// ordinals the records carried, so the answer is the single DB's that
// ingested A, then B.
func TestRacingIngestIsExact(t *testing.T) {
	const k = 3
	hb := &holdingBackend{
		Backend: Local(propDB(t)),
		hold:    func(v []digitaltraces.VisitRecord) bool { return v[0].Entity[0] == 'a' },
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	c, err := NewCluster(Config{Backends: []Backend{Local(propDB(t)), hb}, TraceSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	db := propDB(t)
	defer db.Close()
	onOne := func(s int) bool { return c.slotmap().assign[s] == 1 }
	batch := func(names []string) (recs []digitaltraces.VisitRecord) {
		for _, e := range names {
			recs = append(recs, stay(e, 0, 1, 4)) // one tie: every entity the query's twin
		}
		return recs
	}
	query, a, b := batch(namesIn("q", 1, onOne)), batch(namesIn("a", k+1, onOne)), batch(namesIn("b", k+1, onOne))
	ingestBoth(t, c, db, query)
	done := make(chan error)
	go func() {
		_, err := c.AddVisits(a)
		done <- err
	}()
	<-hb.held // A has its ordinals and waits at the shard
	_, errB := c.AddVisits(b)
	close(hb.release)
	if errA := <-done; errA != nil || errB != nil {
		t.Fatalf("batch A: %v; batch B: %v", errA, errB)
	}
	if first := hb.Backend.(local).AllVisits()[1].Entity; first != b[0].Entity {
		t.Fatalf("fixture: the shard registered %s after the query, want B's %s first", first, b[0].Entity)
	}
	for _, recs := range [][]digitaltraces.VisitRecord{a, b} {
		if _, err := db.AddVisits(recs); err != nil {
			t.Fatal(err)
		}
	}

	want, _, err := db.TopK(query[0].Entity, k)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.TopK(query[0].Entity, k)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "after the racing batches", got, want)
	if want[0].Entity != a[0].Entity {
		t.Fatalf("fixture: the single DB answers %v, not batch A's entities", want)
	}
	if row := lastRow(t, c, 1); !row.Cut || row.Pulled != k+1 {
		t.Fatalf("the shard returned %d matches (cut %t), want its cap of k+1 = %d inside the tie", row.Pulled, row.Cut, k+1)
	}
}

// TestMigratedClusterAsksKPlusOne: a 4-shard cluster of 1 000 sparse WiFi
// devices answers 500 queries at k = 10 exactly like the single DB, with no
// shard returning more than its k+1 — before any migration, after
// MigrateSlot(0, 1), and after MigrateSlot(2, 3) too: a migration target ranks
// the shipped entities by the global ordinals they carried, so no later query
// pays for the move. So does a fresh cluster the migrated one's envelope
// opens into, whose registry is read from images holding the stale copies.
func TestMigratedClusterAsksKPlusOne(t *testing.T) {
	const (
		k, shards, side, levels = 10, 4, 32, 4
		devices, queries        = 1000, 500
	)
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: side, Levels: levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon, cfg.Seed, cfg.DetectionProb = 14*24, 1, 0.05
	gen, err := mobility.NewWiFiGenerator(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := digitaltraces.NewGridDB(side, levels)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := range devices {
		name := fmt.Sprintf("d%d", i)
		var recs []digitaltraces.VisitRecord
		for _, r := range gen.Entity(trace.EntityID(i)) {
			recs = append(recs, digitaltraces.VisitRecord{Entity: name, Venue: digitaltraces.VenueName(int(r.Base)),
				Start: digitaltraces.TimeAt(int(r.Start)), End: digitaltraces.TimeAt(int(r.End))})
		}
		if len(recs) > 0 {
			if _, err := db.AddVisits(recs); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	c, err := Partition(db, Config{Shards: shards, NewShard: func(int) (*digitaltraces.DB, error) { return digitaltraces.NewGridDB(side, levels) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := make([]string, queries)
	for i := range qs {
		qs[i] = names[rng.Intn(len(names))]
	}
	check := func(state string, c *Cluster) {
		t.Helper()
		most := 0
		for _, q := range qs {
			want, _, err := db.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := c.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, state+": "+q, got, want)
			most = max(most, st.Pulled)
		}
		if most > shards*(k+1) {
			t.Errorf("%s: a query pulled %d matches, past the %d of every shard's k+1", state, most, shards*(k+1))
		}
	}
	check("no migration", c)
	for _, move := range [][2]int{{0, 1}, {2, 3}} {
		if err := c.MigrateSlot(move[0], move[1]); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after MigrateSlot(%d, %d)", move[0], move[1]), c)
	}
	opened, err := NewCluster(Config{Shards: shards, NewShard: func(int) (*digitaltraces.DB, error) { return digitaltraces.NewGridDB(side, levels) }})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if err := opened.OpenIndex(saveMapped(t, c)); err != nil {
		t.Fatal(err)
	}
	if got, want := opened.NumEntities(), db.NumEntities(); got != want {
		t.Fatalf("the opened cluster counts %d entities, the single DB %d", got, want)
	}
	check("opened after the migrations", opened)
}
