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
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topk: ")
	var (
		in      = flag.String("in", "traces.bin", "input record file (tracegen format)")
		side    = flag.Int("side", 16, "venue grid side used at generation time")
		levels  = flag.Int("levels", 4, "sp-index height used at generation time")
		nh      = flag.Int("hash", 256, "number of hash functions")
		k       = flag.Int("k", 10, "result size")
		queries = flag.String("query", "0", "comma-separated entity ids to query")
		u       = flag.Float64("u", 2, "ADM level exponent")
		v       = flag.Float64("v", 2, "ADM duration exponent")
		seed    = flag.Uint64("seed", 1, "hash-family seed")
		index   = flag.String("index", "", "optional snapshot from buildindex -index or -index-mmap; skips re-hashing")
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
	var horizon trace.Time
	counts := map[trace.EntityID]int{}
	if err := extsort.GroupByEntity(sorted, func(e trace.EntityID, recs []trace.Record) error {
		for _, r := range recs {
			if r.End > horizon {
				horizon = r.End
			}
		}
		store.AddRecords(e, recs)
		ids = append(ids, e)
		counts[e] = len(recs)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	var tree *core.Tree
	if *index != "" {
		f, err := os.Open(*index)
		if err != nil {
			log.Fatal(err)
		}
		// Snapshots resolve by the record-file naming convention
		// ("entity-<fileID>") and cross-check the covered visit counts, so a
		// snapshot built over a different or stale record set errors instead
		// of silently binding signatures to the wrong entities.
		byName := make(map[string]trace.EntityID, len(ids))
		for _, e := range ids {
			byName[fmt.Sprintf("entity-%d", e)] = e
		}
		resolve := func(se core.SnapshotEntity) (trace.EntityID, bool, error) {
			e, ok := byName[se.Name]
			if !ok {
				return 0, false, fmt.Errorf("snapshot entity %q is not in %s — the snapshot was built over a different record set", se.Name, *in)
			}
			if se.Folded == core.FoldedUnknown {
				// Stamped "dirty while the save ran": the signature covers an
				// unknown visit prefix, so binding it to the full record file
				// would serve wrong pruning bounds — exactly the silent
				// misalignment the name table exists to refuse.
				return 0, false, fmt.Errorf("snapshot's signature for %q is stale (the entity was receiving visits while the snapshot was saved); rebuild it with buildindex -index", se.Name)
			}
			if int(se.Folded) != counts[e] {
				return 0, false, fmt.Errorf("snapshot covers %d visits for %q but %s has %d — stale snapshot; rebuild it with buildindex -index", se.Folded, se.Name, *in, counts[e])
			}
			return e, true, nil
		}
		sr, err := secfile.NewReader(f)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := core.DecodeSnapshot(sr, ix)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if tree, err = snap.Tree(ix, store, resolve); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded snapshot %s (%d entities)\n", *index, tree.Len())
	} else {
		fam, err := sighash.NewFamily(ix, horizon, *nh, *seed)
		if err != nil {
			log.Fatal(err)
		}
		tree, err = core.Build(ix, fam, store, ids)
		if err != nil {
			log.Fatal(err)
		}
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
		res, stats, err := tree.TopK(q, *k, measure)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("top-%d for entity %d (%v, checked %d of %d, PE %.4f):\n",
			*k, id, el.Round(time.Microsecond), stats.Checked, tree.Len()-1, stats.PE)
		for i, r := range res {
			fmt.Printf("  %2d. entity %-8d deg=%.6f\n", i+1, r.Entity, r.Degree)
		}
	}
}
