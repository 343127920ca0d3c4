// Command buildindex ingests a raw record file, external-sorts it by entity
// (Section 4.3), builds the served index (the entity table and the level-1
// cell index), and reports indexing cost.
//
// Usage:
//
//	buildindex -in traces.bin -side 24 -levels 4 -buffers 64
//
// -index writes the index image, sequences included and page-aligned, so
// serve -index maps and serves it in place with no re-ingest, and topk -index
// answers from it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/extsort"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("buildindex: ")
	var (
		in      = flag.String("in", "traces.bin", "input record file (tracegen format)")
		side    = flag.Int("side", 16, "venue grid side used at generation time")
		levels  = flag.Int("levels", 4, "sp-index height used at generation time")
		buffers = flag.Int("buffers", 64, "buffer pages for the external sort (B)")
		page    = flag.Int("page", 4096, "page size in bytes")
		out     = flag.String("index", "", "optional path to persist the index image (served in place by serve -index and topk -index)")
		u       = flag.Float64("u", 2, "ADM level exponent stamped into the snapshot meta")
		v       = flag.Float64("v", 2, "ADM duration exponent stamped into the snapshot meta")
	)
	flag.Parse()

	ix, err := spindex.NewGrid(spindex.GridConfig{Side: *side, Levels: *levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: external sort by entity.
	sorted := filepath.Join(os.TempDir(), "buildindex-sorted.bin")
	defer os.Remove(sorted)
	t0 := time.Now()
	sortStats, err := extsort.SortFile(*in, sorted, extsort.Config{PageSize: *page, BufferPages: *buffers})
	if err != nil {
		log.Fatal(err)
	}
	sortTime := time.Since(t0)
	fmt.Printf("sort: %d records, %d pages, %d runs, %d merge passes, %d page I/Os (formula: %d) in %v\n",
		sortStats.Records, sortStats.DataPages, sortStats.Runs, sortStats.MergePasses,
		sortStats.PageIO(), extsort.TheoreticalPageIO(sortStats.DataPages, *buffers), sortTime.Round(time.Millisecond))

	// Phase 2: stream one entity at a time into the store and index.
	store := trace.NewStore(ix)
	var ids []trace.EntityID
	counts := map[trace.EntityID]uint32{}
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, recs []trace.Record) error {
		store.AddRecords(e, recs)
		ids = append(ids, e)
		counts[e] = uint32(len(recs))
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	t1 := time.Now()
	post, err := core.BuildPostings(ix, store, ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d entities, %.1f KB, built in %v\n",
		post.Len(), float64(post.MemoryBytes())/1024, time.Since(t1).Round(time.Millisecond))

	if *out == "" {
		return
	}
	// Entity names follow the record-file convention ("entity-<fileID>", the
	// naming LoadRecordFile and the synthetic cities use), so topk and serve
	// check the image against the records by name; the meta records the
	// tracegen discretization (Unix epoch, hourly units).
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	meta := core.SnapshotMeta{TimeUnit: time.Hour, MeasureU: *u, MeasureV: *v}
	n, err := post.WriteSnapshot(f, meta, store, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("entity-%d", e), counts[e]
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index image: %d bytes written to %s\n", n, *out)
}
