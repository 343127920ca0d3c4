package digitaltraces

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"digitaltraces/internal/extsort"
	"digitaltraces/internal/trace"
)

// TestGridConstructorsShareOneRule: the five grid-backed constructors build
// over the same grid under one rule — levels 0 means 4, and a side below 2
// is refused naming the side, with one level as with any other.
func TestGridConstructorsShareOneRule(t *testing.T) {
	// Every record at venue 0, which any side holds: a loader that accepts
	// the side has nothing else to refuse.
	var recs []trace.Record
	for e := range trace.EntityID(3) {
		recs = append(recs, trace.Record{Entity: e, Base: 0, Start: trace.Time(e), End: trace.Time(e) + 2})
	}
	path := filepath.Join(t.TempDir(), "grid.rec")
	if err := extsort.WriteRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	ctors := map[string]func(side, levels int) (*DB, error){
		"NewGridDB": func(side, levels int) (*DB, error) { return NewGridDB(side, levels) },
		"SyntheticCity": func(side, levels int) (*DB, error) {
			return SyntheticCity(CityConfig{Side: side, Levels: levels, Entities: 3, Days: 1})
		},
		"SyntheticWiFiCity": func(side, levels int) (*DB, error) {
			return SyntheticWiFiCity(WiFiCityConfig{Side: side, Levels: levels, Devices: 3, Days: 1})
		},
		"LoadRecordFile": func(side, levels int) (*DB, error) { return LoadRecordFile(path, side, levels) },
		"BulkLoadRecordFile": func(side, levels int) (*DB, error) {
			db, _, err := BulkLoadRecordFile(path, side, levels, BulkConfig{TempDir: t.TempDir()})
			return db, err
		},
	}
	cases := []struct {
		side, levels int
		want         int // the DB's levels; 0 for a refusal
	}{
		{8, 0, 4},
		{8, 3, 3},
		{2, 0, 4},
		{1, 1, 0},
		{1, 0, 0},
		{0, 4, 0},
	}
	for name, ctor := range ctors {
		for _, tc := range cases {
			db, err := ctor(tc.side, tc.levels)
			switch {
			case tc.want == 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("side %d < 2", tc.side))):
				t.Errorf("%s(side %d, levels %d): %v, want a refusal naming the side", name, tc.side, tc.levels, err)
			case tc.want != 0 && err != nil:
				t.Errorf("%s(side %d, levels %d): %v", name, tc.side, tc.levels, err)
			case tc.want != 0 && (db.Levels() != tc.want || db.NumVenues() != tc.side*tc.side):
				t.Errorf("%s(side %d, levels %d): %d levels over %d venues, want %d over %d", name, tc.side, tc.levels, db.Levels(), db.NumVenues(), tc.want, tc.side*tc.side)
			}
		}
	}
}
