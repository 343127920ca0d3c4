// Command topk answers top-k association queries over a record file: it
// sorts and indexes the records, then runs queries for the requested
// entities, printing answers with exact degrees and pruning statistics. The
// cold run is digitaltraces.BulkLoadRecordFile and -index is LoadRecordFile
// plus DB.OpenIndex, so its answers are serve's for the same file.
//
// Usage:
//
//	topk -in traces.bin -side 24 -query 0,17,42 -k 10 -u 2 -v 2
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"digitaltraces"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topk: ")
	var (
		in      = flag.String("in", "traces.bin", "input record file (tracegen format)")
		side    = flag.Int("side", 16, "venue grid side used at generation time")
		levels  = flag.Int("levels", 4, "sp-index height used at generation time")
		k       = flag.Int("k", 10, "result size")
		queries = flag.String("query", "0", "comma-separated entity ids to query")
		u       = flag.Float64("u", 2, "ADM level exponent")
		v       = flag.Float64("v", 2, "ADM duration exponent")
		index   = flag.String("index", "", "optional index image (buildindex -index, serve's save), reconciled against the record file and served in place")
	)
	flag.Parse()

	measure := digitaltraces.WithPaperMeasure(*u, *v)
	var (
		db  *digitaltraces.DB
		err error
	)
	if *index == "" {
		db, _, err = digitaltraces.BulkLoadRecordFile(*in, *side, *levels, digitaltraces.BulkConfig{}, measure)
	} else if db, err = digitaltraces.LoadRecordFile(*in, *side, *levels, measure); err == nil {
		// An image over a different record set is refused by name and ID; a
		// stale one is folded up to the file before it answers.
		if err = db.OpenIndex(*index); err == nil {
			fmt.Printf("opened index %s (%d entities)\n", *index, db.IndexStats().Entities)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	others := db.IndexStats().Entities - 1

	for _, tok := range strings.Split(*queries, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("bad query id %q: %v", tok, err)
		}
		res, stats, err := db.TopK(fmt.Sprintf("entity-%d", id), *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("top-%d for entity %d (%v, checked %d of %d, PE %.4f):\n",
			*k, id, stats.Elapsed.Round(time.Microsecond), stats.Checked, others, stats.PE)
		for i, r := range res {
			fmt.Printf("  %2d. entity %-8s deg=%.6f\n", i+1, strings.TrimPrefix(r.Entity, "entity-"), r.Degree)
		}
	}
}
