// Command buildindex ingests a raw record file, external-sorts it by entity
// (Section 4.3), builds the MinSigTree, and reports indexing cost — the
// pipeline behind Figure 7.8.
//
// Usage:
//
//	buildindex -in traces.bin -side 24 -levels 4 -hash 256 -buffers 64
//
// -index writes the index without its sequence section (warm restart over a
// re-ingested log); -index-mmap writes it with the sequences, page-aligned,
// so serve -index-mmap maps and serves it in place, no re-ingest needed (and
// topk -index still loads it by name).
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
	"digitaltraces/internal/sighash"
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
		nh      = flag.Int("hash", 256, "number of hash functions")
		buffers = flag.Int("buffers", 64, "buffer pages for the external sort (B)")
		page    = flag.Int("page", 4096, "page size in bytes")
		seed    = flag.Uint64("seed", 1, "hash-family seed")
		out     = flag.String("index", "", "optional path to persist the index snapshot (loadable by topk -index and serve -index-load)")
		outMap  = flag.String("index-mmap", "", "optional path to persist the page-aligned mapped snapshot (servable in place by serve -index-mmap)")
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
	var horizon trace.Time
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, recs []trace.Record) error {
		for _, r := range recs {
			if r.End > horizon {
				horizon = r.End
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
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
	fam, err := sighash.NewFamily(ix, horizon, *nh, *seed)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := core.Build(ix, fam, store, ids)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(t1)
	st := tree.Stats()
	fmt.Printf("index: %d entities, %d nodes (%d leaves, max leaf %d), %.1f KB, built in %v (nh=%d)\n",
		st.Entities, st.Nodes, st.Leaves, st.MaxLeafSize, float64(st.MemoryBytes)/1024, buildTime.Round(time.Millisecond), *nh)
	if err := tree.Validate(); err != nil {
		log.Fatalf("index validation failed: %v", err)
	}
	fmt.Println("index validation: ok")

	// Entity names follow the record-file convention ("entity-<fileID>", the
	// naming LoadRecordFile and the synthetic cities use), so topk and serve
	// -index-load resolve entities by name regardless of ingest order; the
	// meta records the tracegen discretization (Unix epoch, hourly units).
	save := func(path string, seqs core.SequenceSource) int64 {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		meta := core.SnapshotMeta{TimeUnit: time.Hour, MeasureU: *u, MeasureV: *v}
		n, err := tree.WriteSnapshot(f, meta, seqs, func(e trace.EntityID) (string, uint32) {
			return fmt.Sprintf("entity-%d", e), counts[e]
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		return n
	}
	if *out != "" {
		fmt.Printf("snapshot: %d bytes written to %s\n", save(*out, nil), *out)
	}
	if *outMap != "" {
		// With the sequence data, so serve -index-mmap can fault it in lazily
		// without re-ingesting the record file.
		fmt.Printf("mapped snapshot: %d bytes written to %s\n", save(*outMap, store), *outMap)
	}
}
