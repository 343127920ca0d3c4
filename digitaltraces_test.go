package digitaltraces

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)

func smallHierarchy(t testing.TB) *Hierarchy {
	t.Helper()
	h := NewHierarchy(3)
	h.AddPath("downtown", "king-street", "cafe-a")
	h.AddPath("downtown", "king-street", "cafe-b")
	h.AddPath("downtown", "bay-street", "gym")
	h.AddPath("uptown", "eglinton", "mall")
	h.AddPath("uptown", "eglinton", "library")
	return h
}

func TestHierarchyErrors(t *testing.T) {
	if _, err := NewDB(NewHierarchy(0)); err == nil {
		t.Error("0 levels accepted")
	}
	if _, err := NewDB(NewHierarchy(2)); err == nil {
		t.Error("empty hierarchy accepted")
	}
	h := NewHierarchy(2).AddPath("a", "b", "c")
	if _, err := NewDB(h); err == nil {
		t.Error("wrong path length accepted")
	}
	h2 := NewHierarchy(2).AddPath("a", "")
	if _, err := NewDB(h2); err == nil {
		t.Error("empty name accepted")
	}
	// Duplicate venue under two different parents is ambiguous.
	h3 := NewHierarchy(3).AddPath("x", "y", "v").AddPath("x", "z", "v")
	if _, err := NewDB(h3); err == nil {
		t.Error("duplicate venue name accepted")
	}
	// Re-declaring the identical path is idempotent.
	h4 := NewHierarchy(2).AddPath("x", "v").AddPath("x", "v")
	if _, err := NewDB(h4); err != nil {
		t.Errorf("idempotent AddPath rejected: %v", err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	db, err := NewDB(smallHierarchy(t))
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Alice and Bob overlap at cafe-a; Carol is nearby on the same street;
	// Dave is across town.
	must(db.AddVisit("alice", "cafe-a", t0, t0.Add(3*time.Hour)))
	must(db.AddVisit("bob", "cafe-a", t0.Add(time.Hour), t0.Add(4*time.Hour)))
	must(db.AddVisit("carol", "cafe-b", t0, t0.Add(2*time.Hour)))
	must(db.AddVisit("dave", "mall", t0, t0.Add(3*time.Hour)))
	matches, stats, err := db.TopK("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("got %d matches", len(matches))
	}
	if matches[0].Entity != "bob" {
		t.Errorf("top match = %q, want bob (co-located 2h at cafe-a)", matches[0].Entity)
	}
	if matches[1].Entity != "carol" {
		t.Errorf("second = %q, want carol (same street)", matches[1].Entity)
	}
	if matches[2].Entity != "dave" || matches[2].Degree != 0 {
		t.Errorf("third = %+v, want dave with degree 0", matches[2])
	}
	if !(matches[0].Degree > matches[1].Degree && matches[1].Degree > 0) {
		t.Errorf("degrees not ordered: %+v", matches)
	}
	if stats.Checked < 1 || stats.Elapsed <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Degree is symmetric and self-degree is 1.
	ab, err := db.Degree("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := db.Degree("bob", "alice")
	if ab != ba || ab != matches[0].Degree {
		t.Errorf("Degree mismatch: %v %v %v", ab, ba, matches[0].Degree)
	}
	if self, _ := db.Degree("alice", "alice"); self != 1 {
		t.Errorf("self degree = %v", self)
	}
	st := db.IndexStats()
	if st.Entities != 4 || st.MemoryBytes <= 0 {
		t.Errorf("IndexStats = %+v", st)
	}
}

func TestVisitValidation(t *testing.T) {
	db, err := NewDB(smallHierarchy(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("x", "nowhere", t0, t0.Add(time.Hour)); err == nil {
		t.Error("unknown venue accepted")
	}
	if err := db.AddVisit("x", "gym", t0, t0); err == nil {
		t.Error("empty span accepted")
	}
	if err := db.AddVisit("x", "gym", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Visit before the (inferred) epoch.
	if err := db.AddVisit("x", "gym", t0.Add(-time.Hour), t0); err == nil {
		t.Error("pre-epoch visit accepted")
	}
	if _, _, err := db.TopK("ghost", 1); err == nil {
		t.Error("unknown query entity accepted")
	}
}

func TestOptions(t *testing.T) {
	if _, err := NewDB(smallHierarchy(t), WithTimeUnit(0)); err == nil {
		t.Error("zero time unit accepted")
	}
	// The measure is built once, with the DB: a bad one is refused there,
	// not at the first build.
	if _, err := NewDB(smallHierarchy(t), WithPaperMeasure(2, 0.5)); err == nil || !strings.Contains(err.Error(), "duration exponent") {
		t.Errorf("duration exponent 0.5 < 1: %v", err)
	}
	db, err := NewDB(smallHierarchy(t),
		WithTimeUnit(30*time.Minute),
		WithEpoch(t0),
		WithJaccardMeasure(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("a", "gym", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("b", "gym", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	m, _, err := db.TopK("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Entity != "b" || m[0].Degree != 1 {
		t.Errorf("identical traces under Jaccard: %+v, want degree 1", m[0])
	}
}

func TestTopKByExample(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("regular", "library", t0, t0.Add(4*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("other", "gym", t0, t0.Add(4*time.Hour)); err != nil {
		t.Fatal(err)
	}
	m, _, err := db.TopKByExample([]Visit{{Venue: "library", Start: t0, End: t0.Add(2 * time.Hour)}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Entity != "regular" {
		t.Errorf("example query matched %q, want regular", m[0].Entity)
	}
	if _, _, err := db.TopKByExample([]Visit{{Venue: "nope", Start: t0, End: t0.Add(time.Hour)}}, 1); err == nil {
		t.Error("unknown venue in example accepted")
	}
}

func TestRefreshIncremental(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("a", "cafe-a", t0, t0.Add(10*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("b", "mall", t0, t0.Add(10*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	m, _, err := db.TopK("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Degree != 0 {
		t.Fatalf("a and b should be unassociated: %+v", m)
	}
	// b moves to alice's cafe: the write folds it in.
	if err := db.AddVisit("b", "cafe-a", t0.Add(2*time.Hour), t0.Add(5*time.Hour)); err != nil {
		t.Fatal(err)
	}
	m, _, err = db.TopK("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Entity != "b" || m[0].Degree <= 0 {
		t.Fatalf("after refresh: %+v, want associated b", m[0])
	}
	// A visit far past everything the index was built over folds in too.
	if err := db.AddVisit("b", "cafe-a", t0.Add(100*time.Hour), t0.Add(101*time.Hour)); err != nil {
		t.Fatalf("fold of a visit past the built data: %v", err)
	}
	if _, _, err := db.TopK("a", 1); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticCity(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 8, Entities: 40, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumEntities() != 40 || db.NumVenues() != 64 || db.Levels() != 4 {
		t.Fatalf("city shape: %d entities, %d venues, %d levels", db.NumEntities(), db.NumVenues(), db.Levels())
	}
	m, stats, err := db.TopK("entity-0", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Fatalf("got %d matches", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Degree > m[i-1].Degree {
			t.Fatal("matches not sorted by degree")
		}
	}
	if stats.PE < 0 || stats.PE > 1 {
		t.Errorf("PE = %v", stats.PE)
	}
	if len(db.Entities()) != 40 {
		t.Error("Entities() size mismatch")
	}
	if _, err := SyntheticCity(CityConfig{Side: 1, Entities: 5}); err == nil {
		t.Error("side 1 accepted")
	}
	if _, err := SyntheticCity(CityConfig{Side: 8, Entities: 0}); err == nil {
		t.Error("0 entities accepted")
	}
}

func TestSyntheticWiFiCity(t *testing.T) {
	db, err := SyntheticWiFiCity(WiFiCityConfig{Side: 8, Devices: 30, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := db.TopK("entity-3", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("got %d matches", len(m))
	}
	if _, err := SyntheticWiFiCity(WiFiCityConfig{Side: 0, Devices: 5}); err == nil {
		t.Error("side 0 accepted")
	}
	if _, err := SyntheticWiFiCity(WiFiCityConfig{Side: 8, Devices: 0}); err == nil {
		t.Error("0 devices accepted")
	}
}

func TestVenueHelpers(t *testing.T) {
	if VenueName(7) != "venue-7" {
		t.Error("VenueName mismatch")
	}
	if TimeAt(2).Sub(TimeAt(0)) != 2*time.Hour {
		t.Error("TimeAt arithmetic broken")
	}
}

func TestBuildIndexEmpty(t *testing.T) {
	db, err := NewDB(smallHierarchy(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err == nil {
		t.Error("empty BuildIndex accepted")
	}
}

// TestVisitPastTimeRange: a stored time is a 32-bit unit offset, which at a
// one-second unit spans 68 years. A visit 80 years past the epoch is refused
// with ErrTimeRange instead of wrapping to 1962 — by ingest, storing nothing,
// and by query-by-example alike — while one ending at the last unit reads
// back as it went in.
func TestVisitPastTimeRange(t *testing.T) {
	db, err := NewDB(smallHierarchy(t), WithTimeUnit(time.Second), WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	late := t0.AddDate(80, 0, 0)
	if err := db.AddVisit("alice", "cafe-a", late, late.Add(time.Hour)); !errors.Is(err, ErrTimeRange) {
		got, _ := db.VisitsOf("alice")
		t.Fatalf("a visit 80 years past the epoch: err %v, read back as %v; want ErrTimeRange", err, got)
	}
	if n := db.NumEntities(); n != 0 {
		t.Fatalf("the refused visit registered %d entities", n)
	}
	last := t0.Add(math.MaxInt32 * time.Second)
	if err := db.AddVisit("bob", "cafe-a", last.Add(-time.Hour), last); err != nil {
		t.Fatalf("a visit ending at the last unit: %v", err)
	}
	if got, err := db.VisitsOf("bob"); err != nil || len(got) != 1 || !got[0].Start.Equal(last.Add(-time.Hour)) || !got[0].End.Equal(last) {
		t.Fatalf("the visit ending at the last unit reads back as %v (%v)", got, err)
	}
	if err := db.AddVisit("bob", "cafe-a", last, last.Add(time.Nanosecond)); !errors.Is(err, ErrTimeRange) {
		t.Fatalf("a visit one unit past the range: %v, want ErrTimeRange", err)
	}
	if _, _, err := db.TopKByExample([]Visit{{Venue: "cafe-a", Start: late, End: late.Add(time.Hour)}}, 3); !errors.Is(err, ErrTimeRange) {
		t.Fatalf("an example 80 years past the epoch: %v, want ErrTimeRange", err)
	}
}
