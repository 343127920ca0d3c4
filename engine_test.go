package digitaltraces

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAddVisitsPartialFailure pins the documented bulk-ingest semantics: the
// returned count is the number of visits stored, visits before the failing
// one are kept, and the error names the failing index.
func TestAddVisitsPartialFailure(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	visits := []VisitRecord{
		{Entity: "a", Venue: "gym", Start: t0, End: t0.Add(2 * time.Hour)},
		{Entity: "b", Venue: "mall", Start: t0, End: t0.Add(time.Hour)},
		{Entity: "c", Venue: "atlantis", Start: t0, End: t0.Add(time.Hour)}, // unknown venue
		{Entity: "d", Venue: "gym", Start: t0, End: t0.Add(time.Hour)},
	}
	n, err := db.AddVisits(visits)
	if err == nil {
		t.Fatal("unknown venue accepted")
	}
	if n != 2 {
		t.Errorf("stored %d visits, want 2", n)
	}
	if !strings.Contains(err.Error(), "visit 2") || !strings.Contains(err.Error(), "atlantis") {
		t.Errorf("error %q does not name the failing visit", err)
	}
	// The prefix is kept and queryable; the failing and later visits are not.
	if db.NumEntities() != 2 {
		t.Errorf("NumEntities = %d, want 2 (a, b)", db.NumEntities())
	}
	if _, _, err := db.TopK("a", 1); err != nil {
		t.Errorf("prefix entity not queryable: %v", err)
	}
	if _, err := db.VisitsOf("d"); err == nil {
		t.Error("post-failure entity was stored")
	}
	// An empty-span record mid-batch fails the same way.
	n, err = db.AddVisits([]VisitRecord{
		{Entity: "e", Venue: "gym", Start: t0, End: t0.Add(time.Hour)},
		{Entity: "f", Venue: "gym", Start: t0, End: t0},
	})
	if err == nil || n != 1 || !strings.Contains(err.Error(), "visit 1") {
		t.Errorf("empty span mid-batch: n=%d err=%v", n, err)
	}
}

// TestTopKByExampleValidation covers the example-path discretization fixes:
// pre-epoch spans get a clear error naming the epoch and its origin, empty
// spans are rejected, and sub-unit spans round like ingested visits instead
// of erroring.
func TestTopKByExampleValidation(t *testing.T) {
	// Epoch inferred from data: the error should say so.
	db, err := NewDB(smallHierarchy(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("a", "gym", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("b", "gym", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, _, err = db.TopKByExample([]Visit{{Venue: "gym", Start: t0.Add(-3 * time.Hour), End: t0.Add(-time.Hour)}}, 1)
	if err == nil || !strings.Contains(err.Error(), "precedes the epoch") || !strings.Contains(err.Error(), "inferred from the first ingested visit") {
		t.Errorf("pre-epoch example against data-inferred epoch: %v", err)
	}
	// Explicit epoch: the error names WithEpoch as the origin.
	db2, err := NewDB(smallHierarchy(t), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.AddVisit("a", "gym", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, _, err = db2.TopKByExample([]Visit{{Venue: "gym", Start: t0.Add(-time.Hour), End: t0}}, 1)
	if err == nil || !strings.Contains(err.Error(), "WithEpoch") {
		t.Errorf("pre-epoch example against explicit epoch: %v", err)
	}
	// Empty span.
	if _, _, err := db2.TopKByExample([]Visit{{Venue: "gym", Start: t0, End: t0}}, 1); err == nil || !strings.Contains(err.Error(), "empty span") {
		t.Errorf("empty example span: %v", err)
	}
	// A sub-unit span discretizes like ingest (one base unit), not an error.
	m, _, err := db2.TopKByExample([]Visit{{Venue: "gym", Start: t0, End: t0.Add(10 * time.Minute)}}, 1)
	if err != nil {
		t.Fatalf("sub-unit example span rejected: %v", err)
	}
	if len(m) != 1 || m[0].Entity != "a" {
		t.Errorf("sub-unit example matches = %+v", m)
	}
}

// TestStartBeforeEpochRefused: a visit starting before the epoch is refused,
// however little before — one that starts inside the unit before the epoch
// is not stored from the epoch — on ingest and as a query example alike.
func TestStartBeforeEpochRefused(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("a", "gym", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, before := range []time.Duration{time.Nanosecond, 30 * time.Minute, 90 * time.Minute} {
		start := t0.Add(-before)
		if err := db.AddVisit("b", "gym", start, t0.Add(time.Hour)); err == nil || !strings.Contains(err.Error(), "precedes the epoch") {
			t.Errorf("visit starting %v before the epoch: %v", before, err)
		}
		if _, _, err := db.TopKByExample([]Visit{{Venue: "gym", Start: start, End: t0.Add(time.Hour)}}, 1); err == nil || !strings.Contains(err.Error(), "precedes the epoch") {
			t.Errorf("example starting %v before the epoch: %v", before, err)
		}
	}
	if vs, err := db.VisitsOf("b"); err == nil {
		t.Errorf("a refused visit was stored: %v", vs)
	}
}

// TestVisitRoundTrip: VisitsOf and AllVisits reconstruct wall-clock visits
// that re-discretize to the identical stored cells — the invariant the
// cluster fan-out and Partition depend on.
func TestVisitRoundTrip(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithEpoch(t0), WithTimeUnit(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	// A sub-unit visit exercises the ceil rounding.
	if err := db.AddVisit("a", "gym", t0.Add(time.Hour), t0.Add(time.Hour+10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("a", "cafe-a", t0.Add(2*time.Hour), t0.Add(4*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("b", "gym", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	va, err := db.VisitsOf("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(va) != 2 || va[0].Venue != "gym" || va[1].Venue != "cafe-a" {
		t.Fatalf("VisitsOf(a) = %+v", va)
	}
	if !va[0].Start.Equal(t0.Add(time.Hour)) || !va[0].End.Equal(t0.Add(time.Hour+30*time.Minute)) {
		t.Errorf("sub-unit visit reconstructed as %v..%v, want unit-aligned span", va[0].Start, va[0].End)
	}
	if _, err := db.VisitsOf("ghost"); err == nil {
		t.Error("unknown entity accepted")
	}
	// Replaying AllVisits into a fresh DB reproduces every degree exactly.
	all := db.AllVisits()
	if len(all) != 3 {
		t.Fatalf("AllVisits has %d records, want 3", len(all))
	}
	if all[0].Entity != "a" || all[2].Entity != "b" {
		t.Errorf("AllVisits not in ingest order: %+v", all)
	}
	db2, err := NewDB(smallHierarchy(t), WithEpoch(t0), WithTimeUnit(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.AddVisits(all); err != nil {
		t.Fatal(err)
	}
	want, _, err := db.TopK("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db2.TopK("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed DB diverges: %+v vs %+v", got, want)
		}
	}
	// The TopK above folded every visit, so the export now reads the
	// sequences — presence periods, not the ingested records — and replays
	// to the same answers all the same.
	if n := pendingCount(db); n != 0 {
		t.Fatalf("%d entities pending after the query folded them", n)
	}
	db3, err := NewDB(smallHierarchy(t), WithEpoch(t0), WithTimeUnit(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db3.AddVisits(db.AllVisits()); err != nil {
		t.Fatal(err)
	}
	got, _, err = db3.TopK("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DB replayed from the folded export diverges: %+v vs %+v", got, want)
	}
}

func TestEpochAccessors(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithTimeUnit(15*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if _, set := db.Epoch(); set {
		t.Error("epoch set before any visit")
	}
	if db.TimeUnit() != 15*time.Minute {
		t.Errorf("TimeUnit = %v", db.TimeUnit())
	}
	if err := db.AddVisit("a", "gym", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if e, set := db.Epoch(); !set || !e.Equal(t0.Truncate(15*time.Minute)) {
		t.Errorf("epoch after first visit = %v (set=%t)", e, set)
	}
}

func TestNewGridDB(t *testing.T) {
	db, err := NewGridDB(4, 0) // levels 0 defaults to 4
	if err != nil {
		t.Fatal(err)
	}
	if db.NumVenues() != 16 || db.Levels() != 4 || db.NumEntities() != 0 {
		t.Errorf("grid DB shape: %d venues, %d levels, %d entities", db.NumVenues(), db.Levels(), db.NumEntities())
	}
	if e, set := db.Epoch(); !set || !e.Equal(time.Unix(0, 0).UTC()) {
		t.Errorf("grid DB epoch = %v (set=%t), want Unix epoch", e, set)
	}
	if _, err := NewGridDB(1, 3); err == nil {
		t.Error("side 1 accepted")
	}
	// IndexStats records the build duration once built.
	if err := db.AddVisit("a", "venue-0", TimeAt(0), TimeAt(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if db.IndexStats().BuildTime <= 0 {
		t.Error("IndexStats.BuildTime not recorded")
	}
}
