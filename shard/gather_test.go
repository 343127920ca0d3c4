package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
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

// TestTieAcrossCapAfterMigration: a migration target's local order disagrees
// with the global order on a degree tie that straddles its (k+1)-th entry —
// its own entities hold the low local IDs, the shipped ones arrived first in
// the cluster — so its first k+1 by local order are the wrong k+1. The
// touched flag makes its reply carry the whole tie, and the answer is the
// single DB's.
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

	// The fixture: untied, the target's first k+1 are its own entities,
	// while the answer is the shipped ones, which arrived first.
	visits, err := db.VisitsOf(query)
	if err != nil {
		t.Fatal(err)
	}
	untied, err := backends[1].Backend.Rank(RankRequest{Visits: visits, Want: k + 1, Owned: c.slotmap().Owned(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range untied.Matches {
		if i < k && m.Entity != own[i] {
			t.Fatalf("fixture: the target's local order ranks %v first, want its own %v", untied.Matches, own)
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
	if row := lastRow(t, c, 1); row.Pulled != 2*(k+1) {
		t.Fatalf("the target returned %d matches, want its whole tie of %d (the query excluded)", row.Pulled, 2*(k+1))
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
	if row := lastRow(t, c, 0); row.Pulled != k+1 || row.Rounds != 1 {
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
