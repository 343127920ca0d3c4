package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"digitaltraces"
	"digitaltraces/internal/mobility"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
	"digitaltraces/server"
)

// Frozen benchmark constants. Changing any of them changes what the numbers
// mean, so they are constants here rather than flags; README.md records how
// each was calibrated.
const (
	// datasetSeed fixes the population: -seed varies only the requests the
	// program sees, so heap_mb, index_mb and setup_s do not move with it.
	datasetSeed   = 1
	detectionProb = 0.05 // sparse WiFi detections: the setting where the index prunes
	topK          = 10
	hashSeed      = 1 // digitaltraces' default hash-family seed, used by the twin too
	zipfS         = 1.1

	writerPeriod   = 250 * time.Millisecond
	writerVisits   = 32 // visits per POST /visits batch
	writerEntities = 8  // distinct existing entities per batch

	verifySamples = 50 // answers compared bit-for-bit with the scan, per run
	segments      = 5  // a timing is the median over this many consecutive sub-phases
	setupRounds   = 5  // setup_s is the median of this many complete set-ups
)

// size is a population preset. Only "full" produces comparable numbers.
type size struct {
	name                            string
	devices, side, levels, days, nh int
	// opsCap bounds warm-up, counted and traced op counts (0 = the
	// workload's own frozen counts); smoke uses it to finish in a second.
	opsCap int
}

var sizes = map[string]size{
	"full":  {name: "full", devices: 20000, side: 32, levels: 4, days: 14, nh: 256},
	"smoke": {name: "smoke", devices: 500, side: 32, levels: 4, days: 14, nh: 256, opsCap: 50},
}

// workload is one traffic mix over one serving stack.
type workload struct {
	name   string
	shards int  // > 0: a shard.Cluster over this many loopback shard/remote servers
	cache  int  // query-cache entries at full size; 0 = no cache
	zipf   bool // Zipf(zipfS) over a seeded permutation; otherwise the permutation itself
	writer bool // a second client POSTs /visits batches with refresh on a fixed schedule

	warmupOps  int // excluded ops before measuring
	countedOps int // fixed length of the traced run's counted phase, so counts repeat exactly
	tracedOps  int // ops replayed by each span pass of the traced run
}

// The cache capacity is calibrated once (README.md, "Calibration") so that
// zipf_cached's hit rate sits in 0.65–0.75: p50 is then a hit and p90 a miss,
// neither near the cliff between the two.
const zipfCacheEntries = 1200

var workloads = []workload{
	{name: "sparse_single", warmupOps: 200, countedOps: 600, tracedOps: 150},
	{name: "sparse_remote4", shards: 4, warmupOps: 200, countedOps: 600, tracedOps: 150},
	{name: "zipf_cached", cache: zipfCacheEntries, zipf: true, warmupOps: 2000, countedOps: 3000, tracedOps: 150},
	{name: "zipf_mixed_ingest", cache: zipfCacheEntries, zipf: true, writer: true, warmupOps: 2000, countedOps: 1000, tracedOps: 150},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled applies a size preset to the workload's frozen counts.
func (w workload) scaled(sz size) workload {
	if sz.opsCap > 0 {
		w.warmupOps = min(w.warmupOps, sz.opsCap)
		w.countedOps = min(w.countedOps, sz.opsCap)
		w.tracedOps = min(w.tracedOps, sz.opsCap/2)
	}
	if w.cache > 0 {
		w.cache = max(8, w.cache*sz.devices/sizes["full"].devices)
	}
	return w
}

// dataset is the generated population: raw records per entity, in the order
// every engine ingests them, so entity i here is EntityID i in a single DB,
// in the coordinator's arrival registry, and in the twin store.
type dataset struct {
	sz      size
	ix      *spindex.Index
	names   []string
	recs    [][]trace.Record
	bodies  [][]byte // POST /topk body per entity
	horizon trace.Time
	visits  int
}

func generate(sz size) (*dataset, error) {
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: sz.side, Levels: sz.levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		return nil, err
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon = trace.Time(sz.days * 24)
	cfg.Seed = datasetSeed
	cfg.DetectionProb = detectionProb
	gen, err := mobility.NewWiFiGenerator(ix, cfg)
	if err != nil {
		return nil, err
	}
	d := &dataset{sz: sz, ix: ix}
	for i := 0; i < sz.devices; i++ {
		recs := gen.Entity(trace.EntityID(i))
		if len(recs) == 0 {
			continue // never detected: the engines would never learn its name
		}
		id := trace.EntityID(len(d.names))
		for j := range recs {
			recs[j].Entity = id
			d.horizon = max(d.horizon, recs[j].End)
		}
		name := fmt.Sprintf("d%d", i)
		body, err := json.Marshal(server.TopKRequest{Entity: name, K: topK})
		if err != nil {
			return nil, err
		}
		d.names = append(d.names, name)
		d.recs = append(d.recs, recs)
		d.bodies = append(d.bodies, body)
		d.visits += len(recs)
	}
	return d, nil
}

// visitRecords renders the population as the ingest API sees it.
func (d *dataset) visitRecords() []digitaltraces.VisitRecord {
	out := make([]digitaltraces.VisitRecord, 0, d.visits)
	for i, recs := range d.recs {
		for _, r := range recs {
			out = append(out, digitaltraces.VisitRecord{
				Entity: d.names[i],
				Venue:  digitaltraces.VenueName(int(r.Base)),
				Start:  digitaltraces.TimeAt(int(r.Start)),
				End:    digitaltraces.TimeAt(int(r.End)),
			})
		}
	}
	return out
}

// opSeq is the precomputed request sequence of one run. The program under
// test only ever sees these requests; nothing is drawn at run time.
type opSeq struct {
	queries []int32 // entity index per /topk, cycled if a run outlasts it
	batches []batch // writer batches, in schedule order (writer workloads only)
	hash    uint64  // FNV-1a over both, printed so two runs can be shown to be the same
}

// batch is one POST /visits request and the records it adds.
type batch struct {
	body []byte
	recs []trace.Record
}

// zipfQueries is long enough that a 60 s all-hit run does not wrap.
const zipfQueries = 1 << 18

// newOps derives the request sequence from the seed alone: workloads with
// the same query distribution get the identical sequence, which is what lets
// sparse_remote4 be compared query-for-query with sparse_single.
func newOps(w workload, d *dataset, seed int64, nBatches int) (*opSeq, error) {
	rng := rand.New(rand.NewSource(seed))
	n := len(d.names)
	perm := rng.Perm(n)
	ops := &opSeq{}
	if w.zipf {
		z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
		ops.queries = make([]int32, zipfQueries)
		for i := range ops.queries {
			ops.queries[i] = int32(perm[z.Uint64()])
		}
	} else {
		ops.queries = make([]int32, n)
		for i, e := range perm {
			ops.queries[i] = int32(e)
		}
	}
	if w.writer {
		// A separate stream, so the number of batches a run needs does not
		// shift the query sequence.
		wrng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
		for b := 0; b < nBatches; b++ {
			bt, err := newBatch(d, wrng)
			if err != nil {
				return nil, err
			}
			ops.batches = append(ops.batches, bt)
		}
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, q := range ops.queries {
		buf[0], buf[1], buf[2], buf[3] = byte(q), byte(q>>8), byte(q>>16), byte(q>>24)
		h.Write(buf[:])
	}
	for _, b := range ops.batches {
		h.Write(b.body)
	}
	ops.hash = h.Sum64()
	return ops, nil
}

// newBatch draws writerVisits short visits over writerEntities existing
// entities, all inside the indexed horizon so the refresh stays on the
// incremental (copy-on-write) path instead of forcing a rebuild.
func newBatch(d *dataset, rng *rand.Rand) (batch, error) {
	req := server.VisitsRequest{Refresh: true}
	var recs []trace.Record
	picked := map[int]bool{}
	for len(picked) < writerEntities {
		e := rng.Intn(len(d.names))
		if picked[e] {
			continue
		}
		picked[e] = true
		for v := 0; v < writerVisits/writerEntities; v++ {
			base := rng.Intn(d.ix.NumBase())
			start := trace.Time(rng.Intn(int(d.horizon) - 2))
			end := start + 1 + trace.Time(rng.Intn(2))
			recs = append(recs, trace.Record{Entity: trace.EntityID(e), Base: spindex.BaseID(base), Start: start, End: end})
			req.Visits = append(req.Visits, server.Visit{
				Entity: d.names[e],
				Venue:  digitaltraces.VenueName(base),
				Start:  digitaltraces.TimeAt(int(start)),
				End:    digitaltraces.TimeAt(int(end)),
			})
		}
	}
	body, err := json.Marshal(req)
	return batch{body: body, recs: recs}, err
}
