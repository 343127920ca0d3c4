// Command buildindex ingests a raw record file, external-sorts it by entity
// (Section 4.3), builds the served index (the entity table and the level-1
// cell index), and reports indexing cost. It is digitaltraces.BulkLoadRecordFile,
// the loader behind serve -in -bulk, so its image names and orders entities
// exactly as serve does.
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
	"time"

	"digitaltraces"
	"digitaltraces/server"
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

	db, bs, err := digitaltraces.BulkLoadRecordFile(*in, *side, *levels,
		digitaltraces.BulkConfig{PageSize: *page, BufferPages: *buffers}, digitaltraces.WithPaperMeasure(*u, *v))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sort: %d records, %d pages, %d runs, %d merge passes, %d page I/Os (formula: %d) in %v\n",
		bs.Records, bs.Sort.DataPages, bs.Sort.Runs, bs.Sort.MergePasses,
		bs.Sort.PageIO(), bs.TheoreticalPageIO, bs.SortTime.Round(time.Millisecond))
	st := db.IndexStats()
	fmt.Printf("index: %d entities, %.1f KB, built in %v\n",
		st.Entities, float64(st.MemoryBytes)/1024, bs.BuildTime.Round(time.Millisecond))

	if *out == "" {
		return
	}
	n, err := server.SaveIndexFile(db, *out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index image: %d bytes written to %s\n", n, *out)
}
