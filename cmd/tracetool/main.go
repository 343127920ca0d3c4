// Command tracetool inspects a serving instance's per-query trace ring over
// GET /traces and distills it into operator-facing tables: the slowest
// queries, per-shard pull skew, how often the cap or floor cuts a shard short,
// and cache effectiveness by entity. Run it against a server started with
// -trace N:
//
//	serve -addr :8080 -synthetic -shards 4 -trace 512 &
//	tracetool -url http://localhost:8080 -slowest 10
//
// Filters mirror the endpoint's parameters, so the tool shows exactly what a
// dashboard polling /traces would see:
//
//	tracetool -url http://localhost:8080 -anomalies          # flagged only
//	tracetool -url http://localhost:8080 -entity alice
//	tracetool -url http://localhost:8080 -cache miss -min-ms 5
//
// The tool exits nonzero when the server has no traces (ring empty or the
// filter matched nothing), so CI smoke tests can assert that a query
// workload actually produced traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"time"

	"digitaltraces/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracetool: ")
	var (
		base      = flag.String("url", "http://localhost:8080", "server base URL")
		slowest   = flag.Int("slowest", 10, "rows in the slowest-queries table (0 = newest instead of slowest)")
		entity    = flag.String("entity", "", "only traces for this query entity")
		cache     = flag.String("cache", "", "only cache \"hit\" or \"miss\" traces")
		minMS     = flag.Float64("min-ms", 0, "only traces at least this slow")
		anomalies = flag.Bool("anomalies", false, "only traces flagged slow or shard-skewed")
		latFactor = flag.Float64("latency-factor", 0, "slow threshold: median × factor (0 = server default)")
		skewFac   = flag.Float64("skew-factor", 0, "skew threshold: fair share × factor (0 = server default)")
		limit     = flag.Int("limit", 0, "cap on fetched traces after filtering (0 = ring capacity)")
	)
	flag.Parse()

	q := url.Values{}
	if *slowest > 0 {
		q.Set("slowest", fmt.Sprint(*slowest))
	}
	if *entity != "" {
		q.Set("entity", *entity)
	}
	if *cache != "" {
		q.Set("cache", *cache)
	}
	if *minMS > 0 {
		q.Set("min_ms", fmt.Sprint(*minMS))
	}
	if *anomalies {
		q.Set("anomalies", "1")
	}
	if *latFactor > 0 {
		q.Set("latency_factor", fmt.Sprint(*latFactor))
	}
	if *skewFac > 0 {
		q.Set("skew_factor", fmt.Sprint(*skewFac))
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	traces := fetchTraces(*base, q)
	if traces.Total == 0 {
		log.Fatalf("no traces in the ring at %s — is the server running with -trace N and has it answered queries?", *base)
	}
	if traces.Count == 0 {
		log.Fatalf("ring holds %d traces but none match the filter", traces.Total)
	}

	fmt.Printf("ring: %d/%d traces (capacity %d), median latency %s; showing %d\n\n",
		traces.Total, traces.Capacity, traces.Capacity, us(traces.MedianUS), traces.Count)
	printSlowest(traces)
	printShardSkew(traces, fetchStats(*base))
	printCutEffectiveness(traces)
	printCacheByEntity(traces)
	printBatches(traces)
	printLatencies(*base)
}

func fetchTraces(base string, q url.Values) server.TracesResponse {
	u := base + "/traces"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	var resp server.TracesResponse
	getJSON(u, &resp)
	return resp
}

func getJSON(u string, dst any) {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("GET %s: %s: %s", u, resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatalf("GET %s: bad JSON: %v", u, err)
	}
}

// printSlowest is the headline table: one row per returned trace in the
// server's order (slowest-first under -slowest, else newest-first).
func printSlowest(tr server.TracesResponse) {
	fmt.Println("slowest queries:")
	fmt.Printf("  %6s  %-8s  %-16s  %3s  %10s  %8s  %7s  %6s  %-5s  %s\n",
		"id", "kind", "entity", "k", "total", "checked", "pulled", "shards", "cache", "flags")
	for _, t := range tr.Traces {
		entity := t.Entity
		if entity == "" {
			entity = "(example)"
		}
		cache := "miss"
		if t.CacheHit {
			cache = "hit"
		}
		flags := ""
		for i, a := range t.Anomalies {
			if i > 0 {
				flags += ","
			}
			flags += a
		}
		if t.Err != "" {
			if flags != "" {
				flags += ","
			}
			flags += "error"
		}
		fmt.Printf("  %6d  %-8s  %-16s  %3d  %10s  %8d  %7d  %6d  %-5s  %s\n",
			t.ID, t.Kind, entity, t.K, us(t.TotalUS), t.Checked, t.Pulled, len(t.Shards), cache, flags)
	}
	fmt.Println()
}

// fetchStats grabs /stats best-effort so the skew table can be annotated
// with authoritative slot/entity ownership; nil means "no annotation", not
// an error — the trace tables stand on their own.
func fetchStats(base string) *server.StatsResponse {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	return &st
}

// printShardSkew aggregates pulled candidates by shard ordinal across every
// returned trace with a fan-out, surfacing hot shards the anomaly rule only
// flags one query at a time. When /stats is reachable each row is annotated
// with the shard's slot and entity ownership, so a pull imbalance can be
// read against the placement that caused it.
func printShardSkew(tr server.TracesResponse, st *server.StatsResponse) {
	pulled := map[int]int{}
	addrs := map[int]string{}
	total := 0
	for _, t := range tr.Traces {
		for _, s := range t.Shards {
			pulled[s.Shard] += s.Pulled
			if s.Addr != "" {
				addrs[s.Shard] = s.Addr
			}
			total += s.Pulled
		}
	}
	if total == 0 {
		return
	}
	ords := make([]int, 0, len(pulled))
	for o := range pulled {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	byOrd := map[int]server.ShardStat{}
	if st != nil {
		for _, s := range st.Shards {
			byOrd[s.Shard] = s
		}
	}
	fair := float64(total) / float64(len(ords))
	if st != nil && st.SlotEpoch > 0 {
		fmt.Printf("per-shard pull skew (across shown traces; slot map epoch %d):\n", st.SlotEpoch)
	} else {
		fmt.Println("per-shard pull skew (across shown traces):")
	}
	fmt.Printf("  %5s  %7s  %6s  %s\n", "shard", "pulled", "share", "vs fair")
	for _, o := range ords {
		ratio := float64(pulled[o]) / fair
		bar := ""
		for i := 0.0; i+0.25 <= ratio && len(bar) < 32; i += 0.25 {
			bar += "#"
		}
		note := ""
		if s, ok := byOrd[o]; ok {
			note = fmt.Sprintf("  [slots=%d owned=%d entities=%d]", s.Slots, s.Owned, s.Entities)
		}
		fmt.Printf("  %5d  %7d  %5.1f%%  %.2fx %s%s\n",
			o, pulled[o], 100*float64(pulled[o])/float64(total), ratio, bar, note)
		if a := addrs[o]; a != "" {
			fmt.Printf("         @ %s\n", a)
		}
	}
	fmt.Println()
}

// printCutEffectiveness reports how often a shard's cap or floor ended its
// search before it ran dry — the per-call win rate of the bounded gather.
func printCutEffectiveness(tr server.TracesResponse) {
	cut, calls := 0, 0
	for _, t := range tr.Traces {
		for _, s := range t.Shards {
			calls++
			if s.Cut {
				cut++
			}
		}
	}
	if calls == 0 {
		return
	}
	fmt.Printf("cut effectiveness: %d/%d shard calls cut by the cap or floor (%.1f%%), %d exhausted\n\n",
		cut, calls, 100*float64(cut)/float64(calls), calls-cut)
}

// printCacheByEntity reports hit rates per query entity over the shown
// traces — the entities worth a bigger cache show up at the bottom.
func printCacheByEntity(tr server.TracesResponse) {
	type ctr struct{ hits, total int }
	byEntity := map[string]*ctr{}
	for _, t := range tr.Traces {
		if t.Entity == "" {
			continue
		}
		c := byEntity[t.Entity]
		if c == nil {
			c = &ctr{}
			byEntity[t.Entity] = c
		}
		c.total++
		if t.CacheHit {
			c.hits++
		}
	}
	if len(byEntity) == 0 {
		return
	}
	names := make([]string, 0, len(byEntity))
	for n := range byEntity {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := byEntity[names[i]], byEntity[names[j]]
		if a.total != b.total {
			return a.total > b.total
		}
		return names[i] < names[j]
	})
	fmt.Println("cache hit rate by entity:")
	fmt.Printf("  %-16s  %7s  %5s  %s\n", "entity", "queries", "hits", "rate")
	for _, n := range names {
		c := byEntity[n]
		fmt.Printf("  %-16s  %7d  %5d  %5.1f%%\n", n, c.total, c.hits, 100*float64(c.hits)/float64(c.total))
	}
	fmt.Println()
}

// printBatches groups traces by their shared batch ID.
func printBatches(tr server.TracesResponse) {
	type agg struct {
		items   int
		totalUS int64
	}
	byBatch := map[uint64]*agg{}
	for _, t := range tr.Traces {
		if t.BatchID == 0 {
			continue
		}
		a := byBatch[t.BatchID]
		if a == nil {
			a = &agg{}
			byBatch[t.BatchID] = a
		}
		a.items++
		a.totalUS += t.TotalUS
	}
	if len(byBatch) == 0 {
		return
	}
	ids := make([]uint64, 0, len(byBatch))
	for id := range byBatch {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	fmt.Println("batches (items among shown traces):")
	fmt.Printf("  %6s  %5s  %12s\n", "batch", "items", "sum latency")
	for _, id := range ids {
		a := byBatch[id]
		fmt.Printf("  %6d  %5d  %12s\n", id, a.items, us(a.totalUS))
	}
	fmt.Println()
}

// printLatencies adds the /stats per-kind latency quantiles; best-effort —
// a /stats failure doesn't spoil the trace tables already printed.
func printLatencies(base string) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	if len(st.Index.Latencies) == 0 {
		return
	}
	kinds := make([]string, 0, len(st.Index.Latencies))
	for k := range st.Index.Latencies {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("latency quantiles (all traced queries, not just shown):")
	fmt.Printf("  %-8s  %8s  %10s  %10s  %10s  %10s\n", "kind", "count", "p50", "p90", "p99", "max")
	for _, k := range kinds {
		l := st.Index.Latencies[k]
		fmt.Printf("  %-8s  %8d  %10s  %10s  %10s  %10s\n",
			k, l.Count, us(l.P50US), us(l.P90US), us(l.P99US), us(l.MaxUS))
	}
}

// us renders a microsecond count humanely.
func us(v int64) string {
	return (time.Duration(v) * time.Microsecond).Round(time.Microsecond).String()
}
