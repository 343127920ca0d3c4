package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"digitaltraces"
	"digitaltraces/internal/core"
	"digitaltraces/internal/qcache"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/trace"
	"digitaltraces/server"
	"digitaltraces/shard"
)

// perLayer lists every per-layer metric, prefixed by the module it belongs
// to. A metric whose layer does no work on a workload reports 0 there.
var perLayer = []metricDef{
	// Counted phase: a fixed number of ops through the real HTTP path.
	{"process.allocs_per_op", "count"},
	{"process.alloc_kb_per_op", "KB"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.trace_overhead_pct", "%"},
	{"topk_p99_ms", "ms"},
	{"visits_p50_ms", "ms"},
	{"visits_p90_ms", "ms"},
	{"writer.lateness_p50_ms", "ms"},
	{"writer.lateness_max_ms", "ms"},
	{"qcache.hit_rate", "ratio"},
	{"qcache.evictions_per_op", "count"},
	{"qcache.entries", "count"},
	{"core.checked_per_query", "count"},
	{"core.pruned_frac", "ratio"},
	{"shard.pulled_per_query", "count"},
	{"shard.checked_per_query", "count"},
	{"shard.merge_us_per_query", "us"},
	{"shard.owned_skew", "ratio"},
	{"remote.rpcs_per_query", "count"},
	{"remote.pulls_per_query", "count"},
	{"remote.retries", "count"},
	// Span passes: self times and the inner layers' own counters.
	{"net.self_us", "us"},
	{"server.self_us", "us"},
	{"server.resp_bytes", "B"},
	{"digitaltraces.self_us", "us"},
	{"shard.local4_topk_ms", "ms"},
	{"remote.wire_self_ms", "ms"},
	{"core.tree_topk_ms", "ms"},
	{"core.traverse_self_ms", "ms"},
	{"core.nodes_popped_per_query", "count"},
	{"core.leaves_read_per_query", "count"},
	{"core.cells_hashed_per_query", "count"},
	{"core.allocs_per_query", "count"},
	{"core.scan_topk_ms", "ms"},
	{"core.tree_vs_scan", "ratio"},
	{"adm.degree_ns", "ns"},
	{"adm.exact_ms_per_query", "ms"},
	{"qcache.get_hit_ns", "ns"},
	{"qcache.put_ns", "ns"},
	// Set-up and refresh costs, timed on the twin.
	{"trace.new_sequences_us_per_entity", "us"},
	{"sighash.signature_us_per_entity", "us"},
	{"sighash.family_mb", "MB"},
	{"core.build_s", "s"},
	{"core.derive_ms", "ms"},
}

// span is one timed call into a layer. Spans of one op share its id; parent
// names the span of the same op one pass further out.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// pass is one layer of the traced replay: a call into that layer's public
// entry point for a given op, and the pass one layer further out.
type pass struct {
	name, parent string
	call         func(op int) error
}

// replay runs n ops through a group of passes, single-threaded, recording a
// span per pass and op, and returns each pass's span durations in ns.
//
// The passes of a group are interleaved op by op — all layers of op 0, then
// all layers of op 1, outermost first — rather than run one after the other:
// the reference box changes speed by 10–30 % for tens of seconds at a time,
// so layers timed seconds apart differ by more than a thin layer costs, while
// the layers of one op are timed within the same few tens of milliseconds.
// Only passes that read the same copy of the data share a group. Interleaving
// the engine with the twin was tried and made each evict the other's working
// set from the CPU caches (+30 % on the core pass), which a server holding
// one copy never pays.
func (t *tracer) replay(passes []pass, n int) (map[string]layer, error) {
	layers := make(map[string]layer, len(passes))
	for _, p := range passes {
		layers[p.name] = layer{name: p.name, durs: make([]float64, n)}
	}
	for op := 0; op < n; op++ {
		for _, p := range passes {
			start := time.Since(t.t0)
			if err := p.call(op); err != nil {
				return nil, fmt.Errorf("%s pass, op %d: %w", p.name, op, err)
			}
			end := time.Since(t.t0)
			t.spans = append(t.spans, span{Op: op, Name: p.name, Parent: p.parent, Start: start.Nanoseconds(), End: end.Nanoseconds()})
			layers[p.name].durs[op] = float64(end - start)
		}
	}
	return layers, nil
}

// spanCost is what recording one span costs, in ns: an empty pass.
func spanCost() float64 {
	const n = 100000
	t := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	t.replay([]pass{{name: "empty", call: func(int) error { return nil }}}, n)
	return float64(time.Since(start).Nanoseconds()) / n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runTraced is the traced run (-trace 1). It never produces end-to-end
// numbers. First a counted phase sends a fixed number of ops through the
// real HTTP path and reads the program's own counters, which therefore
// repeat exactly with one client. Then the first tracedOps distinct queries
// are replayed through one pass per layer, each pass calling that layer's
// public entry point from here: nothing inside the program is instrumented.
func runTraced(cfg config, w workload, d *dataset, ops *opSeq, log io.Writer) (map[string]float64, result, error) {
	st, err := setup(w, d, d.visitRecords())
	if err != nil {
		return nil, result{}, err
	}
	defer st.close()
	c := newClient(st.url)
	defer c.close()
	v := map[string]float64{}
	var res result

	sent := countedPhase(w, d, ops, st, c, v, &res, log)

	// The twin mirrors what the engine now holds; check answers against it,
	// then index it for the inner passes.
	tw, err := newTwin(d)
	if err != nil {
		return nil, result{}, err
	}
	tw.apply(sent)
	attempted, failed, verr := tw.verify(c, cfg.seed)
	logErr(log, verr)
	res.Attempted += attempted
	res.Failed += failed
	if err := twinCosts(tw, w, ops, v); err != nil {
		return nil, result{}, err
	}

	tr, err := spanPasses(w, d, ops, st, c, tw, v)
	if err != nil {
		return nil, result{}, err
	}
	path := filepath.Join(cfg.out, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, result{}, err
	}
	fmt.Fprintf(log, "# traced ops_per_pass=%d spans=%d file=%s\n", w.tracedOps, len(tr.spans), path)
	return v, res, nil
}

// countedPhase warms up, then sends exactly w.countedOps queries through the
// HTTP path (beside the writer, on the ingest workload) and fills v from
// counters read before and after. It returns the writer batches the server
// acknowledged.
func countedPhase(w workload, d *dataset, ops *opSeq, st *stack, c *client, v map[string]float64, res *result, log io.Writer) []batch {
	rd := &reader{c: c, d: d, ops: ops}
	warm := rd.run(w.warmupOps, time.Time{})
	logErr(log, warm.err)
	gcBarrier()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ix0, rpc0 := st.eng.IndexStats(), st.remoteMetrics()
	var wr *writer
	if w.writer {
		wr = startWriter(c, ops.batches)
	}
	seg := rd.run(w.countedOps, time.Time{})
	logErr(log, seg.err)
	sent := wr.finish(res, log)
	runtime.ReadMemStats(&m1)
	ix1, rpc1 := st.eng.IndexStats(), st.remoteMetrics()
	res.Attempted += warm.ops + seg.ops
	res.Failed += warm.failed + seg.failed

	if wr != nil {
		v["visits_p50_ms"], v["visits_p90_ms"] = median(wr.lat), quantile(wr.lat, 0.9)
		v["writer.lateness_p50_ms"], v["writer.lateness_max_ms"] = median(wr.lateness), quantile(wr.lateness, 1)
	}
	n := float64(len(seg.lat))
	searches := n - float64(seg.hits)
	v["process.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), n)
	v["process.alloc_kb_per_op"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e3, n)
	v["process.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["process.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	v["topk_p99_ms"] = quantile(seg.lat, 0.99)
	v["qcache.hit_rate"] = ratio(float64(seg.hits), n)
	v["qcache.evictions_per_op"] = ratio(float64(ix1.CacheEvictions-ix0.CacheEvictions), n)
	v["qcache.entries"] = float64(ix1.CacheEntries)
	v["core.pruned_frac"] = ratio(seg.pruned, searches)
	v["server.resp_bytes"] = ratio(float64(seg.respBytes), n)
	if st.cluster == nil {
		v["core.checked_per_query"] = ratio(float64(seg.checked), searches)
	} else {
		// On a cluster the reply's counters are the fan-out's totals; the
		// single tree's are read from the core pass.
		v["shard.checked_per_query"] = ratio(float64(seg.checked), searches)
		v["shard.pulled_per_query"] = ratio(float64(seg.pulled), searches)
		v["shard.merge_us_per_query"] = ratio(float64(seg.mergeUS), searches)
		v["shard.owned_skew"] = st.ownedSkew()
		v["remote.rpcs_per_query"] = ratio(float64(rpc1.RPCs-rpc0.RPCs), searches)
		v["remote.pulls_per_query"] = ratio(float64(rpc1.Pulls-rpc0.Pulls), searches)
		v["remote.retries"] = float64(rpc1.Retries - rpc0.Retries)
	}
	fmt.Fprintf(log, "# counted samples=%d warmup=%d p50_ms=%.4f\n", len(seg.lat), warm.ops, median(seg.lat))
	return sent
}

// twinCosts indexes the twin and fills v with the set-up and refresh costs
// of the inner layers, each timed on its public function.
func twinCosts(tw *twin, w workload, ops *opSeq, v map[string]float64) error {
	if err := tw.buildTree(); err != nil {
		return err
	}
	n := float64(len(tw.ids))
	v["trace.new_sequences_us_per_entity"] = float64(tw.sequencesTime.Nanoseconds()) / 1e3 / n
	v["core.build_s"] = tw.buildTime.Seconds()
	v["sighash.family_mb"] = float64(tw.fam.MemoryBytes()) / 1e6
	start := time.Now()
	for _, e := range tw.ids {
		sighash.Signature(tw.fam, tw.store.Get(e))
	}
	v["sighash.signature_us_per_entity"] = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	if w.cache > 0 {
		v["qcache.get_hit_ns"], v["qcache.put_ns"] = cacheCosts(w.cache, tw.d)
	}
	var err error
	v["core.derive_ms"], err = deriveCost(tw, ops.hash)
	return err
}

// spanPasses replays the first w.tracedOps distinct queries of the sequence
// through every layer and fills v with self times and the search's own
// counters.
func spanPasses(w workload, d *dataset, ops *opSeq, st *stack, c *client, tw *twin, v map[string]float64) (*tracer, error) {
	var queries []int32
	seen := map[int32]bool{}
	for _, e := range ops.queries {
		if len(queries) == w.tracedOps {
			break
		}
		if !seen[e] {
			seen[e] = true
			queries = append(queries, e)
		}
	}
	if w.cache > 0 {
		// Prime the cache so every pass through it reads the all-hit path.
		for _, e := range queries {
			if _, _, err := st.eng.TopK(d.names[e], topK); err != nil {
				return nil, err
			}
		}
	}
	query := func(op int) *trace.Sequences { return tw.store.Get(trace.EntityID(queries[op])) }
	tr := &tracer{t0: time.Now()}

	// Group 1, over the engine's own data: the serving path, layer by layer.
	// The facade already reports how long the search (or the cache lookup)
	// inside it took, so its own share needs no twin.
	var buf bytes.Buffer
	facade := make([]float64, len(queries)) // engine span minus the search time it reports, ns
	gcBarrier()
	l, err := tr.replay([]pass{
		{"http", "", func(op int) error {
			var reply server.TopKResponse
			_, err := c.post("/topk", d.bodies[queries[op]], &buf, &reply)
			return err
		}},
		{"server", "http", func(op int) error {
			rec := httptest.NewRecorder()
			st.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/topk", bytes.NewReader(d.bodies[queries[op]])))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d", rec.Code)
			}
			return nil
		}},
		{"engine", "server", func(op int) error {
			start := time.Now()
			_, qs, err := st.eng.TopK(d.names[queries[op]], topK)
			facade[op] = float64(time.Since(start) - qs.Elapsed)
			return err
		}},
	}, len(queries))
	if err != nil {
		return nil, err
	}
	engineL := l["engine"]
	self := selfTimes([]layer{l["http"], l["server"], engineL})
	v["net.self_us"] = self["http"] / 1e3
	v["server.self_us"] = self["server"] / 1e3
	v["process.trace_overhead_pct"] = 100 * ratio(spanCost(), l["http"].median())

	coreParent := "engine"
	if st.cluster == nil {
		v["digitaltraces.self_us"] = median(facade) / 1e3
	} else {
		// Group 2: the in-process twin of the cluster, same shards, no wire.
		local, err := localCluster(w, d)
		if err != nil {
			return nil, err
		}
		gcBarrier()
		l, err := tr.replay([]pass{{"shard.local", "engine", func(op int) error {
			_, _, err := local.TopK(d.names[queries[op]], topK)
			return err
		}}}, len(queries))
		local.Close()
		if err != nil {
			return nil, err
		}
		v["shard.local4_topk_ms"] = l["shard.local"].median() / 1e6
		v["remote.wire_self_ms"] = selfTimes([]layer{engineL, l["shard.local"]})["engine"] / 1e6
		coreParent = "shard.local"
	}

	// Group 3, over the twin: the search, its exact-degree share, the scan.
	checked := make([]int, len(queries))
	gcBarrier()
	l, err = tr.replay([]pass{
		{"core", coreParent, func(op int) error {
			_, s, err := tw.tree.TopK(query(op), topK, tw.measure)
			checked[op] = s.Checked
			return err
		}},
		// As many Degree calls as the search just made, over the first
		// entities of the twin: the same number of pairs, not the same pairs.
		{"adm", "core", func(op int) error {
			q := query(op)
			for _, e := range tw.ids[:min(checked[op], len(tw.ids))] {
				tw.measure.Degree(q, tw.store.Get(e))
			}
			return nil
		}},
		{"scan", "", func(op int) error {
			tw.scan(queries[op])
			return nil
		}},
	}, len(queries))
	if err != nil {
		return nil, err
	}
	pairs := 0
	for _, c := range checked {
		pairs += c
	}
	v["core.tree_topk_ms"] = l["core"].median() / 1e6
	v["adm.exact_ms_per_query"] = l["adm"].median() / 1e6
	v["adm.degree_ns"] = ratio(sum(l["adm"].durs), float64(pairs))
	v["core.traverse_self_ms"] = selfTimes([]layer{l["core"], l["adm"]})["core"] / 1e6
	v["core.scan_topk_ms"] = l["scan"].median() / 1e6
	gap := make([]float64, len(queries)) // per op, so the machine's speed cancels
	for op := range gap {
		gap[op] = ratio(l["core"].durs[op], l["scan"].durs[op])
	}
	v["core.tree_vs_scan"] = median(gap)

	// The search's own counters and allocations, from an untimed replay of
	// the core pass alone (reading MemStats stops the world).
	var stats core.SearchStats
	var m0, m1 runtime.MemStats
	gcBarrier()
	runtime.ReadMemStats(&m0)
	for op := range queries {
		_, s, err := tw.tree.TopK(query(op), topK, tw.measure)
		if err != nil {
			return nil, err
		}
		stats.Checked += s.Checked
		stats.NodesPopped += s.NodesPopped
		stats.LeavesRead += s.LeavesRead
		stats.CellsHashed += s.CellsHashed
	}
	runtime.ReadMemStats(&m1)
	nq := float64(len(queries))
	v["core.allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / nq
	v["core.nodes_popped_per_query"] = float64(stats.NodesPopped) / nq
	v["core.leaves_read_per_query"] = float64(stats.LeavesRead) / nq
	v["core.cells_hashed_per_query"] = float64(stats.CellsHashed) / nq
	if st.cluster != nil {
		v["core.checked_per_query"] = float64(stats.Checked) / nq
	}
	return tr, nil
}

// localCluster builds an in-process cluster of as many local shards over the
// same data (shard.Partition of a single DB): what the remote cluster would
// cost without the wire.
func localCluster(w workload, d *dataset) (*shard.Cluster, error) {
	opts := []digitaltraces.Option{digitaltraces.WithHashFunctions(d.sz.nh)}
	src, err := digitaltraces.NewGridDB(d.sz.side, d.sz.levels, opts...)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if _, err := src.AddVisits(d.visitRecords()); err != nil {
		return nil, err
	}
	local, err := shard.Partition(src, shard.Config{Shards: w.shards, NewShard: func(int) (*digitaltraces.DB, error) {
		return digitaltraces.NewGridDB(d.sz.side, d.sz.levels, opts...)
	}})
	if err != nil {
		return nil, err
	}
	if err := local.BuildIndex(); err != nil {
		local.Close()
		return nil, err
	}
	return local, nil
}

// cacheCosts times internal/qcache directly, at the workload's capacity and
// with the facade's value type: a Put per entry, then a hit per entry.
func cacheCosts(capacity int, d *dataset) (getHitNS, putNS float64) {
	n := min(capacity, len(d.names))
	val := make([]digitaltraces.Match, topK)
	const rounds = 20
	var get, put time.Duration
	for r := 0; r < rounds; r++ {
		qc := qcache.New[[]digitaltraces.Match](capacity)
		start := time.Now()
		for _, name := range d.names[:n] {
			qc.Put("1", name, val)
		}
		put += time.Since(start)
		start = time.Now()
		for _, name := range d.names[:n] {
			qc.Get("1", name)
		}
		get += time.Since(start)
	}
	ops := float64(rounds * n)
	return float64(get.Nanoseconds()) / ops, float64(put.Nanoseconds()) / ops
}

// deriveCost is the median cost of the copy-on-write index derivation a
// refresh pays for one writer batch: writerEntities dirty entities with a
// few new cells each, on the twin tree.
func deriveCost(tw *twin, seed uint64) (ms float64, err error) {
	const rounds = 5
	n := len(tw.ids)
	first, step := int(seed%uint64(n)), max(1, n/(rounds*writerEntities)) // distinct entities, spread over the population
	durs := make([]float64, rounds)
	for r := range durs {
		store := tw.store.Derive()
		dirty := make([]trace.EntityID, writerEntities)
		for i := range dirty {
			e := trace.EntityID((first + (r*writerEntities+i)*step) % n)
			dirty[i] = e
			recs := append([]trace.Record(nil), tw.d.recs[e]...)
			recs = append(recs, trace.Record{Entity: e, Base: 0, Start: trace.Time(r), End: trace.Time(r + writerVisits/writerEntities)})
			store.AddRecords(e, recs)
		}
		start := time.Now()
		if _, err := tw.tree.Derive(store, dirty); err != nil {
			return 0, err
		}
		durs[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(durs), nil
}
