package digitaltraces

// Out-of-core bulk ingest: BulkLoadRecordFile builds a DB from a record file
// that may be much larger than memory. Where LoadRecordFile materializes the
// whole unsorted log in the heap before anything can be grouped,
// the bulk path external-sorts the file by entity (internal/extsort, the
// paper's 2N·(1+⌈log_B⌈N/B⌉⌉) pass structure) and then streams the sorted
// groups through bounded-parallel sequence construction, so the resident
// set during ingest is O(sort buffers + one batch of groups) — never the
// raw log.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/extsort"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// BulkConfig controls an out-of-core bulk load.
type BulkConfig struct {
	// PageSize and BufferPages bound the external sort's resident memory to
	// roughly PageSize×BufferPages bytes (extsort.Config); zero means the
	// extsort defaults (4 KiB pages × 64 buffers).
	PageSize    int
	BufferPages int
	// TempDir holds the remapped copy and the sorted runs; empty means
	// os.TempDir(). The load needs roughly 2× the input file there.
	TempDir string
}

// BulkStats reports what a bulk load did and what it cost.
type BulkStats struct {
	Records  int
	Entities int
	// Sort is the external sort's measured page I/O; TheoreticalPageIO is
	// the paper's 2N·(1+⌈log_B⌈N/B⌉⌉) bound for the same N data pages and B
	// buffers, so Sort.PageIO()/TheoreticalPageIO ≈ 1 is the fidelity check.
	Sort              extsort.Stats
	TheoreticalPageIO int
	SortTime          time.Duration
	BuildTime         time.Duration
}

// BulkLoadRecordFile builds a DB plus its index from a binary record file in
// the cmd/tracegen format, over the same side×side power-law grid hierarchy
// LoadRecordFile uses — same entity naming ("entity-<fileID>", dense internal
// IDs in file first-occurrence order), same grid conventions (Unix epoch,
// one-hour units, "venue-<n>"), and bit-identical query answers; only the
// memory profile differs. The returned DB has its index built and published
// (LoadRecordFile defers that to BuildIndex).
//
// The load makes three bounded-memory passes: validate + remap entity IDs
// while streaming the file to a temp copy, external-sort that copy by entity
// under the configured buffer budget, then stream the sorted groups through
// parallel sequence construction straight into the index build. What remains
// resident afterwards is what any built DB holds: the sequences and the
// postings, no visit log.
func BulkLoadRecordFile(path string, side, levels int, cfg BulkConfig, opts ...Option) (*DB, *BulkStats, error) {
	ecfg := extsort.DefaultConfig()
	if cfg.PageSize > 0 {
		ecfg.PageSize = cfg.PageSize
	}
	if cfg.BufferPages > 0 {
		ecfg.BufferPages = cfg.BufferPages
	}
	ecfg.TempDir = cfg.TempDir
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: side, Levels: levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		return nil, nil, err
	}
	db, err := newGridDB(ix, opts...)
	if err != nil {
		return nil, nil, err
	}
	tmpRoot := cfg.TempDir
	if tmpRoot == "" {
		tmpRoot = os.TempDir()
	}
	work, err := os.MkdirTemp(tmpRoot, "dt-bulk-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	stats := &BulkStats{}

	// Pass 1: stream-validate and remap file entity IDs to dense internal
	// IDs in first-occurrence order (the LoadRecordFile convention, so both
	// paths name and tie-break identically). Only the ID map is resident.
	dense := make(map[trace.EntityID]trace.EntityID)
	var fileIDs []trace.EntityID
	remapped := filepath.Join(work, "remapped.rec")
	if err := func() error {
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		st, err := in.Stat()
		if err != nil {
			return err
		}
		if st.Size()%extsort.RecordSize != 0 {
			return fmt.Errorf("digitaltraces: record file %s: %d bytes is not a whole number of records", path, st.Size())
		}
		w, err := extsort.NewRecordWriter(remapped)
		if err != nil {
			return err
		}
		defer w.Close()
		br := bufio.NewReaderSize(in, 1<<16)
		var buf [extsort.RecordSize]byte
		for i := 0; ; i++ {
			if _, err := io.ReadFull(br, buf[:]); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			r := extsort.DecodeRecord(buf[:])
			if err := checkRecord(ix, i, r); err != nil {
				return err
			}
			d, ok := dense[r.Entity]
			if !ok {
				d = trace.EntityID(len(fileIDs))
				dense[r.Entity] = d
				fileIDs = append(fileIDs, r.Entity)
			}
			r.Entity = d
			if err := w.Write(r); err != nil {
				return err
			}
			stats.Records++
		}
		return w.Close()
	}(); err != nil {
		return nil, nil, err
	}
	if stats.Records == 0 {
		return nil, nil, fmt.Errorf("digitaltraces: record file %s is empty", path)
	}
	stats.Entities = len(fileIDs)

	// Pass 2: external sort by entity under the buffer budget.
	sorted := filepath.Join(work, "sorted.rec")
	sortStart := time.Now()
	stats.Sort, err = extsort.SortFile(remapped, sorted, ecfg)
	if err != nil {
		return nil, nil, err
	}
	stats.SortTime = time.Since(sortStart)
	stats.TheoreticalPageIO = extsort.TheoreticalPageIO(stats.Sort.DataPages, ecfg.BufferPages)
	os.Remove(remapped)

	// Pass 3: stream sorted groups (ascending dense ID) through the staging
	// step every build runs, a batch at a time, and seal the postings over
	// the finished store. Each entity's count is stamped as ingested and
	// folded, so an image saved from the DB records it.
	buildStart := time.Now()
	for _, fileID := range fileIDs {
		db.register(fmt.Sprintf("entity-%d", fileID))
	}
	store := trace.NewStore(db.ix)
	const batchGroups = 512
	var (
		ids  []trace.EntityID
		recs [][]trace.Record
	)
	flush := func() {
		for _, s := range db.stage(ids, recs) {
			store.Put(s)
		}
		ids, recs = ids[:0], recs[:0]
	}
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, group []trace.Record) error {
		ids, recs = append(ids, e), append(recs, slices.Clone(group))
		db.ingested[e] = uint32(len(group))
		if len(ids) >= batchGroups {
			flush()
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	flush()
	post, err := core.BuildPostings(db.ix, store, store.Entities())
	if err != nil {
		return nil, nil, err
	}
	measure, err := db.newMeasure()
	if err != nil {
		return nil, nil, err
	}
	stats.BuildTime = time.Since(buildStart)
	ns := &snapshot{
		store:     store,
		post:      post,
		measure:   measure,
		byID:      db.byID[:len(db.byID):len(db.byID)],
		buildTime: stats.BuildTime,
	}
	// The DB is still private — publish without the usual locking dance.
	db.swapIn(ns)
	return db, stats, nil
}
