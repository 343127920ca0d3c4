// Command topk answers top-k association queries over a record file: it
// sorts and indexes the records, then runs queries for the requested
// entities, printing answers with exact degrees and pruning statistics.
//
// Usage:
//
//	topk -in traces.bin -side 24 -query 0,17,42 -k 10 -u 2 -v 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/extsort"
	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
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
		index   = flag.String("index", "", "optional index image from buildindex -index, checked against the record file and served in place")
	)
	flag.Parse()

	ix, err := spindex.NewGrid(spindex.GridConfig{Side: *side, Levels: *levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		log.Fatal(err)
	}
	sorted := filepath.Join(os.TempDir(), "topk-sorted.bin")
	defer os.Remove(sorted)
	if _, err := extsort.SortFile(*in, sorted, extsort.DefaultConfig()); err != nil {
		log.Fatal(err)
	}
	store := trace.NewStore(ix)
	var ids []trace.EntityID
	counts := map[trace.EntityID]int{}
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, recs []trace.Record) error {
		store.AddRecords(e, recs)
		ids = append(ids, e)
		counts[e] = len(recs)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	var post *core.Postings
	if *index != "" {
		f, err := os.Open(*index)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			log.Fatal(err)
		}
		sr, err := secfile.NewReaderAt(f, fi.Size())
		if err != nil {
			log.Fatal(err)
		}
		snap, err := core.DecodeSnapshot(sr, ix)
		if err != nil {
			log.Fatal(err)
		}
		// Images name entities by the record-file convention
		// ("entity-<fileID>") and record the covered visit counts, so an image
		// built over a different or stale record set errors instead of
		// silently serving another data set.
		spans := make(map[trace.EntityID]storage.Span, len(snap.Entities))
		order := make([]trace.EntityID, len(snap.Entities))
		for i, se := range snap.Entities {
			switch {
			case se.Name != fmt.Sprintf("entity-%d", se.ID) || counts[se.ID] == 0:
				log.Fatalf("image entity %q (ID %d) is not in %s — the image was built over a different record set", se.Name, se.ID, *in)
			case se.Folded == core.FoldedUnknown:
				// Stamped "dirty while the save ran": the image covers an
				// unknown visit prefix of this entity.
				log.Fatalf("image's entry for %q is stale (the entity was receiving visits while the image was saved); rebuild it with buildindex -index", se.Name)
			case int(se.Folded) != counts[se.ID]:
				log.Fatalf("image covers %d visits for %q but %s has %d — stale image; rebuild it with buildindex -index", se.Folded, se.Name, *in, counts[se.ID])
			}
			spans[se.ID], order[i] = se.Seq, se.ID
		}
		pool, err := storage.OpenSpans(ix, f, fi.Size(), spans, order, storage.Options{BlockSize: secfile.Page})
		if err != nil {
			log.Fatal(err)
		}
		post = snap.MappedPostings(ix, trace.NewBackedStore(ix, pool))
		fmt.Printf("opened index %s (%d entities)\n", *index, post.Len())
	} else if post, err = core.BuildPostings(ix, store, ids); err != nil {
		log.Fatal(err)
	}
	measure, err := adm.NewPaperADM(*levels, *u, *v)
	if err != nil {
		log.Fatal(err)
	}

	for _, tok := range strings.Split(*queries, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			log.Fatalf("bad query id %q: %v", tok, err)
		}
		q := store.Get(trace.EntityID(id))
		if q == nil {
			log.Fatalf("entity %d not in the data", id)
		}
		start := time.Now()
		res, stats, err := post.TopK(q, *k, measure)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("top-%d for entity %d (%v, checked %d of %d, PE %.4f):\n",
			*k, id, el.Round(time.Microsecond), stats.Checked, post.Len()-1, stats.PE)
		for i, r := range res {
			fmt.Printf("  %2d. entity %-8d deg=%.6f\n", i+1, r.Entity, r.Degree)
		}
	}
}
