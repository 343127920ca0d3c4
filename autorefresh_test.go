package digitaltraces

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, desc string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// autoCity builds a small indexed city with the given auto-refresh policy
// and waits until the background goroutine has retired any generation-time
// dirt, so tests start from a clean, quiescent serving snapshot.
func autoCity(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 20, Days: 2}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return db.IndexStats().DirtyCount == 0 }, "initial dirt to clear")
	return db
}

// TestAutoRefreshDirtyThreshold: the policy swaps once the dirty-entity
// count reaches maxDirty — and never before.
func TestAutoRefreshDirtyThreshold(t *testing.T) {
	db := autoCity(t, WithAutoRefresh(5, 0))
	defer db.Close()
	gen := db.IndexStats().Generation

	// Four dirty entities: strictly below the threshold, so no swap can
	// trigger no matter how long the policy runs.
	for e := 0; e < 4; e++ {
		if err := db.AddVisit(fmt.Sprintf("entity-%d", e), VenueName(e), TimeAt(1), TimeAt(2)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond)
	if st := db.IndexStats(); st.Generation != gen || st.DirtyCount != 4 {
		t.Fatalf("below threshold: generation %d (want %d), dirty %d (want 4)", st.Generation, gen, st.DirtyCount)
	}

	// The fifth dirty entity crosses it.
	if err := db.AddVisit("entity-4", VenueName(0), TimeAt(1), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := db.IndexStats()
		return st.Generation > gen && st.DirtyCount == 0
	}, "dirty-threshold swap")
	if d := db.IndexStats().LastRefreshDuration; d <= 0 {
		t.Fatalf("LastRefreshDuration = %v after an incremental swap", d)
	}
}

// TestAutoRefreshStaleness: with only the deadline configured, dirt is
// folded once the serving snapshot is older than maxStaleness, and a clean
// DB never swaps.
func TestAutoRefreshStaleness(t *testing.T) {
	db := autoCity(t, WithAutoRefresh(0, 30*time.Millisecond))
	defer db.Close()
	gen := db.IndexStats().Generation

	if err := db.AddVisit("entity-3", VenueName(1), TimeAt(1), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		st := db.IndexStats()
		return st.Generation > gen && st.DirtyCount == 0
	}, "staleness swap")

	// Clean: the deadline alone must not churn generations.
	gen = db.IndexStats().Generation
	time.Sleep(120 * time.Millisecond)
	if g := db.IndexStats().Generation; g != gen {
		t.Fatalf("clean DB swapped: generation %d, was %d", g, gen)
	}
}

// TestAutoRefreshHorizonEscalation: dirt past everything the first build
// covered needs no escalation — the policy folds it incrementally like any
// other dirt, and the lineage keeps its build.
func TestAutoRefreshHorizonEscalation(t *testing.T) {
	db := autoCity(t, WithAutoRefresh(1, 0))
	defer db.Close()
	before := db.IndexStats()
	// Days: 2 → the city's visits end by hour 48; hour 100 is far past them.
	if err := db.AddVisit("entity-0", VenueName(0), TimeAt(100), TimeAt(102)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		st := db.IndexStats()
		return st.Generation > before.Generation && st.DirtyCount == 0
	}, "incremental fold")
	if st := db.IndexStats(); st.LastRefreshDuration <= 0 || st.BuildTime != before.BuildTime {
		t.Fatalf("LastRefreshDuration %v, BuildTime %v (was %v): want an incremental refresh, not a rebuild", st.LastRefreshDuration, st.BuildTime, before.BuildTime)
	}
}

// TestAutoRefreshClose: Close stops the goroutine (no further swaps, no
// leak) and is idempotent; a DB without the policy tolerates Close too.
func TestAutoRefreshClose(t *testing.T) {
	before := runtime.NumGoroutine()
	db := autoCity(t, WithAutoRefresh(1, 0))
	gen := db.IndexStats().Generation
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The policy is dead: new dirt stays unfolded however long we wait.
	if err := db.AddVisit("entity-0", VenueName(0), TimeAt(1), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if st := db.IndexStats(); st.Generation != gen || st.DirtyCount != 1 {
		t.Fatalf("swap after Close: generation %d (was %d), dirty %d", st.Generation, gen, st.DirtyCount)
	}

	// And its goroutine is gone (manual goleak: the count returns to the
	// pre-construction level, give or take runtime noise).
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before+1 }, "goroutine to exit")

	plain, err := SyntheticCity(CityConfig{Side: 4, Entities: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatalf("Close on a DB without auto-refresh: %v", err)
	}
}

// TestWithAutoRefreshValidation: the option rejects useless configurations.
func TestWithAutoRefreshValidation(t *testing.T) {
	h := NewHierarchy(2).AddPath("a", "v1").AddPath("a", "v2")
	if _, err := NewDB(h, WithAutoRefresh(0, 0)); err == nil {
		t.Fatal("both thresholds zero accepted")
	}
	if _, err := NewDB(h, WithAutoRefresh(-1, 0)); err == nil {
		t.Fatal("negative dirty threshold accepted")
	}
	if _, err := NewDB(h, WithAutoRefresh(0, -time.Second)); err == nil {
		t.Fatal("negative staleness accepted")
	}
	db, err := NewDB(h, WithAutoRefresh(10, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
}

// TestAutoRefreshWaitsForFirstBuild: the policy only maintains an existing
// index — during bulk load (no snapshot yet) it must not build one, however
// much dirt accumulates.
func TestAutoRefreshWaitsForFirstBuild(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 30, Days: 2},
		WithAutoRefresh(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	time.Sleep(60 * time.Millisecond) // every entity is dirty; both triggers armed
	if st := db.IndexStats(); st.Generation != 0 {
		t.Fatalf("policy built the first snapshot (generation %d) during bulk load", st.Generation)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gen := db.IndexStats().Generation
	if err := db.AddVisit("entity-0", VenueName(0), TimeAt(1), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return db.IndexStats().Generation > gen }, "policy to activate after first build")
}
