package digitaltraces

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// recordFileUnits bounds the time units a fuzzed record file's valid-looking
// records may last in total, as the server bounds a /visits request
// (maxVisitUnits): a record file may ask for a span of any length, and what
// loading it costs grows with the units, which is no fault of the loaders.
const recordFileUnits = 1 << 12

// recordFileRefusals are the faults the loaders refuse a record file for,
// each by name.
var recordFileRefusals = []string{"outside the", "bad span", "not a whole number of records", "is empty"}

// FuzzRecordFile: arbitrary bytes as a record file, through LoadRecordFile
// and BulkLoadRecordFile over one grid. Neither panics, each refusal names
// one of recordFileRefusals, both refuse or both load, and where both load,
// they hold the same entities and answer every one's top-k alike. Inputs
// whose records last more than recordFileUnits in total are skipped. The seed
// corpus under testdata/fuzz/FuzzRecordFile holds a valid file, one record
// of each refused kind, a truncated file and an empty one.
//
//	go test -run=^$ -fuzz=FuzzRecordFile -fuzztime=15s .
func FuzzRecordFile(f *testing.F) {
	const side, levels, k = 4, 3, 3
	f.Fuzz(func(t *testing.T, b []byte) {
		units := int64(0)
		for i := 0; i+extsort.RecordSize <= len(b); i += extsort.RecordSize {
			if r := extsort.DecodeRecord(b[i:]); r.Start >= 0 && r.End > r.Start {
				units += int64(r.End) - int64(r.Start)
			}
		}
		if units > recordFileUnits {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.rec")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		mem, memErr := LoadRecordFile(path, side, levels)
		bulk, _, bulkErr := BulkLoadRecordFile(path, side, levels, BulkConfig{TempDir: t.TempDir()})
		for name, err := range map[string]error{"LoadRecordFile": memErr, "BulkLoadRecordFile": bulkErr} {
			if err != nil && !slices.ContainsFunc(recordFileRefusals, func(s string) bool { return strings.Contains(err.Error(), s) }) {
				t.Fatalf("%s refused the file with an unnamed error: %v", name, err)
			}
		}
		if (memErr == nil) != (bulkErr == nil) {
			t.Fatalf("LoadRecordFile: %v; BulkLoadRecordFile: %v — one loader refused what the other loaded", memErr, bulkErr)
		}
		if memErr != nil {
			return
		}
		entities := mem.Entities()
		if got := bulk.Entities(); !slices.Equal(got, entities) {
			t.Fatalf("LoadRecordFile holds %v, BulkLoadRecordFile %v", entities, got)
		}
		assertSameAnswers(t, mem, bulk, entities[:min(len(entities), 8)], k)
	})
}
