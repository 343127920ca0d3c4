package digitaltraces

// Bulk-ingest property tests: BulkLoadRecordFile must answer bit-identically
// to the in-memory LoadRecordFile+BuildIndex path while its external sort
// stays within the paper's page-I/O bound, on a log several times larger
// than the sort's buffer budget.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"digitaltraces/internal/extsort"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// bulkLog writes a shuffled record file with sparse file entity IDs (the
// loaders derive naming and ID order from the file itself) and returns its
// path.
func bulkLog(t *testing.T, entities, visitsPer int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, entities*visitsPer)
	for e := 0; e < entities; e++ {
		// Sparse, non-dense file IDs exercise the remap pass.
		fileID := trace.EntityID(e*7 + 3)
		for v := 0; v < visitsPer; v++ {
			start := trace.Time(rng.Intn(70))
			recs = append(recs, trace.Record{
				Entity: fileID,
				Base:   spindex.BaseID(rng.Intn(16)),
				Start:  start,
				End:    start + 1 + trace.Time(rng.Intn(3)),
			})
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	path := filepath.Join(t.TempDir(), "bulk.rec")
	if err := extsort.WriteRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBulkLoadMatchesInMemory is the acceptance property: a bulk load whose
// input is ≥4× the sort buffer budget answers bit-identically to the heap
// path, with measured page I/O within 2× of the theoretical bound.
func TestBulkLoadMatchesInMemory(t *testing.T) {
	const entities, visitsPer = 60, 20
	path := bulkLog(t, entities, visitsPer, 1)
	// 256 B pages × 4 buffers = 1 KiB budget; the log is 60·20·16 B = 18.75 KiB.
	cfg := BulkConfig{PageSize: 256, BufferPages: 4}
	if st, err := os.Stat(path); err != nil || st.Size() < 4*int64(cfg.PageSize*cfg.BufferPages) {
		t.Fatalf("log is not ≥4x the buffer budget (size %d, err %v)", st.Size(), err)
	}

	bulk, stats, err := BulkLoadRecordFile(path, 4, 3, cfg)
	if err != nil {
		t.Fatalf("BulkLoadRecordFile: %v", err)
	}
	defer bulk.Close()
	if stats.Records != entities*visitsPer || stats.Entities != entities {
		t.Errorf("stats = %d records / %d entities, want %d / %d", stats.Records, stats.Entities, entities*visitsPer, entities)
	}
	if got, bound := stats.Sort.PageIO(), stats.TheoreticalPageIO; got > 2*bound {
		t.Errorf("external sort did %d page I/Os, more than 2x the theoretical %d", got, bound)
	}
	if stats.Sort.Runs < 2 {
		t.Errorf("only %d sorted runs — the budget did not force an external merge; shrink it", stats.Sort.Runs)
	}

	mem, err := LoadRecordFile(path, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if err := mem.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if bulk.NumEntities() != mem.NumEntities() {
		t.Fatalf("bulk registered %d entities, in-memory %d", bulk.NumEntities(), mem.NumEntities())
	}
	names := []string{"entity-3", "entity-10", "entity-38", "entity-157", "entity-416"}
	assertSameAnswers(t, mem, bulk, names, 7)
	if st := bulk.IndexStats(); st.Generation != 1 || st.DirtyCount != 0 {
		t.Errorf("bulk DB published generation %d with %d dirty, want 1 and 0", st.Generation, st.DirtyCount)
	}
}

// TestBulkLoadUnionFold: a bulk-loaded DB keeps no visit log — new visits
// fold in exactly by union with the loaded sequences, and SaveIndex
// round-trips the grown index.
func TestBulkLoadUnionFold(t *testing.T) {
	path := bulkLog(t, 40, 12, 2)
	cfg := BulkConfig{PageSize: 256, BufferPages: 4}
	bulk, _, err := BulkLoadRecordFile(path, 4, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()

	// Grow the log after the bulk load: a suffix of new visits for an
	// existing entity plus a brand-new entity, then compare with an
	// in-memory DB fed the whole thing.
	added := []VisitRecord{
		{Entity: "entity-10", Venue: VenueName(2), Start: TimeAt(1), End: TimeAt(3)},
		{Entity: "entity-10", Venue: VenueName(9), Start: TimeAt(40), End: TimeAt(42)},
		{Entity: "latecomer", Venue: VenueName(5), Start: TimeAt(10), End: TimeAt(12)},
	}
	if _, err := bulk.AddVisits(added); err != nil {
		t.Fatal(err)
	}
	mem, err := LoadRecordFile(path, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.AddVisits(added); err != nil {
		t.Fatal(err)
	}
	if err := mem.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, mem, bulk, []string{"entity-10", "latecomer", "entity-38"}, 5)

	mapped := filepath.Join(t.TempDir(), "bulk.map")
	f, err := os.Create(mapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bulk.SaveIndex(f); err != nil {
		t.Fatalf("SaveIndex from a bulk-loaded DB: %v", err)
	}
	f.Close()
	served := emptyGrid(t)
	defer served.Close()
	if err := served.OpenIndex(mapped); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, mem, served, []string{"entity-10", "latecomer", "entity-38"}, 5)
}

// TestBulkLoadImageOpensOverLog: a bulk-loaded DB keeps no visit log, yet
// its image records every entity's covered count, so it opens over the
// re-ingested record file with nothing pending and answers like the bulk DB.
func TestBulkLoadImageOpensOverLog(t *testing.T) {
	path := bulkLog(t, 30, 10, 3)
	bulk, _, err := BulkLoadRecordFile(path, 4, 4, BulkConfig{PageSize: 256, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	var buf bytes.Buffer
	if _, err := bulk.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex on a bulk-loaded DB: %v", err)
	}
	mem, err := LoadRecordFile(path, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	restored := freshGrid(t, mem.AllVisits())
	if err := restored.OpenIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatalf("OpenIndexAt of the bulk DB's image: %v", err)
	}
	assertOpenFoldedNothing(t, restored)
	assertSameAnswers(t, bulk, restored, []string{"entity-3", "entity-80", "entity-206"}, 5)
}

// TestBulkLoadRejectsBadInput mirrors LoadRecordFile's validation.
func TestBulkLoadRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := make([]byte, extsort.RecordSize)
	extsort.EncodeRecord(good, trace.Record{Entity: 1, Base: 2, Start: 3, End: 5})
	badBase := make([]byte, extsort.RecordSize)
	extsort.EncodeRecord(badBase, trace.Record{Entity: 1, Base: 99, Start: 3, End: 5})
	badSpan := make([]byte, extsort.RecordSize)
	extsort.EncodeRecord(badSpan, trace.Record{Entity: 1, Base: 2, Start: 5, End: 5})
	cases := []struct {
		name, path, want string
	}{
		{"missing file", filepath.Join(dir, "nope.rec"), "no such file"},
		{"ragged file", write("ragged.rec", append(append([]byte{}, good...), 0xFF)), "whole number of records"},
		{"empty file", write("empty.rec", nil), "empty"},
		{"base outside grid", write("base.rec", badBase), "outside the 16-venue grid"},
		{"empty span", write("span.rec", badSpan), "bad span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := BulkLoadRecordFile(tc.path, 4, 3, BulkConfig{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got: %v", tc.want, err)
			}
		})
	}
}
