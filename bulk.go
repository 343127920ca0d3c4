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
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/sighash"
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
	// RetainVisits keeps the raw visit log in the heap after the build, like
	// LoadRecordFile — O(records) memory, but SaveIndex, VisitsOf and
	// AllVisits keep working. The default drops it: the DB holds only the
	// index and flips into union-fold mode (like a mapped load), so new
	// visits still fold in exactly, and persistence goes through
	// SaveMappedIndex.
	RetainVisits bool
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
// parallel sequence construction straight into the index build. See
// BulkConfig.RetainVisits for what remains resident afterwards.
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
	var horizon trace.Time
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
			if r.Base < 0 || int(r.Base) >= ix.NumBase() {
				return fmt.Errorf("digitaltraces: record %d: base %d outside the %d-venue grid (wrong -side?)", i, r.Base, ix.NumBase())
			}
			if r.End <= r.Start || r.Start < 0 {
				return fmt.Errorf("digitaltraces: record %d: bad span [%d,%d)", i, r.Start, r.End)
			}
			d, ok := dense[r.Entity]
			if !ok {
				d = trace.EntityID(len(fileIDs))
				dense[r.Entity] = d
				fileIDs = append(fileIDs, r.Entity)
			}
			r.Entity = d
			if r.End > horizon {
				horizon = r.End
			}
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

	// Pass 3: stream sorted groups (ascending dense ID) into sequences —
	// batched across the worker pool, since cell expansion + sort-dedup
	// dominates — and build the tree over the finished store.
	buildStart := time.Now()
	store := trace.NewStore(db.ix)
	type group struct {
		e    trace.EntityID
		recs []trace.Record
	}
	const batchGroups = 512
	var batch []group
	flush := func() {
		seqs := make([]*trace.Sequences, len(batch))
		parallel.For(len(batch), func(i int) {
			seqs[i] = trace.NewSequences(db.ix, batch[i].e, batch[i].recs)
		})
		for i, s := range seqs {
			store.Put(s)
			if cfg.RetainVisits {
				db.visits[batch[i].e] = batch[i].recs
			}
		}
		batch = batch[:0]
	}
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, recs []trace.Record) error {
		batch = append(batch, group{e, slices.Clone(recs)})
		if len(batch) >= batchGroups {
			flush()
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	flush()

	for d, fileID := range fileIDs {
		name := fmt.Sprintf("entity-%d", fileID)
		db.names[name] = trace.EntityID(d)
		db.byID = append(db.byID, name)
	}
	ids := make([]trace.EntityID, len(fileIDs))
	for i := range ids {
		ids[i] = trace.EntityID(i)
	}
	fam, err := sighash.NewFamily(db.ix, horizon, db.nh, db.seed)
	if err != nil {
		return nil, nil, err
	}
	tree, err := core.Build(db.ix, fam, store, ids)
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
		tree:      tree,
		measure:   measure,
		horizon:   horizon,
		byID:      db.byID[:len(db.byID):len(db.byID)],
		buildTime: stats.BuildTime,
	}
	// The DB is still private — publish without the usual locking dance.
	db.swapIn(ns)
	if !cfg.RetainVisits {
		db.unionFold = true
	}
	return db, stats, nil
}
