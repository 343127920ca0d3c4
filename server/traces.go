package server

// GET /traces — the per-query trace surface over the engine's obs.Tracer
// ring. The handler is read-only and lock-cheap: one Snapshot copies the
// ring under per-slot locks, filtering runs on the copy, and the response
// carries per-trace anomaly annotations computed against the whole ring's
// median so the baseline doesn't shift with the filter.

import (
	"net/http"
	"strconv"
	"time"

	"digitaltraces"
	"digitaltraces/internal/obs"
)

// TraceShard is one shard's share of a traced scatter-gather on the wire.
type TraceShard struct {
	Shard      int     `json:"shard"`
	Addr       string  `json:"addr,omitempty"` // remote shard server address; empty in-process
	Generation uint64  `json:"generation"`
	Pulled     int     `json:"pulled"`
	Checked    int     `json:"checked"`
	Cut        bool    `json:"cut,omitempty"`
	Bound      float64 `json:"bound"`
	LatencyUS  int64   `json:"latency_us"`
}

// Trace mirrors obs.QueryTrace on the wire (durations in microseconds,
// start as RFC 3339). Anomalies carries the reasons the trace was flagged
// ("slow", "shard-skew") under the request's thresholds — present on every
// matching trace, not only under ?anomalies=1, so clients see why.
type Trace struct {
	ID           uint64       `json:"id"`
	BatchID      uint64       `json:"batch_id,omitempty"`
	Kind         string       `json:"kind"`
	Entity       string       `json:"entity,omitempty"`
	K            int          `json:"k"`
	Generation   uint64       `json:"generation,omitempty"`
	Generations  []uint64     `json:"generations,omitempty"`
	CacheHit     bool         `json:"cache_hit,omitempty"`
	Checked      int          `json:"checked"`
	ZeroSkipped  int          `json:"zero_skipped,omitempty"`
	BoundSkipped int          `json:"bound_skipped,omitempty"`
	Pulled       int          `json:"pulled,omitempty"`
	KthDegree    float64      `json:"kth_degree"`
	Shards       []TraceShard `json:"shards,omitempty"`
	MergeUS      int64        `json:"merge_us,omitempty"`
	Start        string       `json:"start"`
	TotalUS      int64        `json:"total_us"`
	Err          string       `json:"error,omitempty"`
	Anomalies    []string     `json:"anomalies,omitempty"`
}

// TracesResponse is the /traces reply. Total counts traces live in the ring
// before filtering, Count the traces returned; MedianUS is the whole-ring
// median latency the anomaly rules compared against.
type TracesResponse struct {
	Total    int     `json:"total"`
	Count    int     `json:"count"`
	Capacity int     `json:"capacity"`
	MedianUS int64   `json:"median_us"`
	Traces   []Trace `json:"traces"`
}

func toTrace(qt obs.QueryTrace, anomalies []string) Trace {
	t := Trace{
		ID:           qt.ID,
		BatchID:      qt.BatchID,
		Kind:         string(qt.Kind),
		Entity:       qt.Entity,
		K:            qt.K,
		Generation:   qt.Generation,
		Generations:  qt.Generations,
		CacheHit:     qt.CacheHit,
		Checked:      qt.Checked,
		ZeroSkipped:  qt.ZeroSkipped,
		BoundSkipped: qt.BoundSkipped,
		Pulled:       qt.Pulled,
		KthDegree:    qt.KthDegree,
		MergeUS:      qt.Merge.Microseconds(),
		Start:        qt.Start.UTC().Format(time.RFC3339Nano),
		TotalUS:      qt.Total.Microseconds(),
		Err:          qt.Err,
		Anomalies:    anomalies,
	}
	for _, st := range qt.Shards {
		t.Shards = append(t.Shards, TraceShard{
			Shard:      st.Shard,
			Addr:       st.Addr,
			Generation: st.Generation,
			Pulled:     st.Pulled,
			Checked:    st.Checked,
			Cut:        st.Cut,
			Bound:      st.Bound,
			LatencyUS:  st.Latency.Microseconds(),
		})
	}
	return t
}

// traceFilter parses the /traces query parameters into an obs.Filter.
// Returns ok=false after writing the 400 when a parameter doesn't parse.
func (s *Server) traceFilter(w http.ResponseWriter, r *http.Request) (obs.Filter, bool) {
	var f obs.Filter
	q := r.URL.Query()
	badParam := func(name, val string) (obs.Filter, bool) {
		s.fail(w, http.StatusBadRequest, "bad %s %q", name, val)
		return f, false
	}
	if v := q.Get("slowest"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return badParam("slowest", v)
		}
		f.Slowest = n
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return badParam("min_ms", v)
		}
		f.MinLatency = time.Duration(ms * float64(time.Millisecond))
	}
	f.Entity = q.Get("entity")
	switch v := q.Get("cache"); v {
	case "", "hit", "miss":
		f.Cache = v
	default:
		return badParam("cache", v)
	}
	if v := q.Get("anomalies"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return badParam("anomalies", v)
		}
		f.AnomaliesOnly = on
	}
	if v := q.Get("latency_factor"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x <= 0 {
			return badParam("latency_factor", v)
		}
		f.LatencyFactor = x
	}
	if v := q.Get("skew_factor"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x <= 0 {
			return badParam("skew_factor", v)
		}
		f.SkewFactor = x
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return badParam("limit", v)
		}
		f.Limit = n
	}
	return f, true
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	tr := s.eng.Tracer()
	if tr == nil {
		// Same contract as /index/save without a path: the operator must opt
		// in at startup (cmd/serve -trace N), so the endpoint answers 409
		// rather than an empty 200 a dashboard would mistake for "no slow
		// queries".
		s.fail(w, http.StatusConflict, "tracing disabled; start the server with a trace ring (cmd/serve -trace N)")
		return
	}
	f, ok := s.traceFilter(w, r)
	if !ok {
		return
	}
	snap := tr.Snapshot()
	median := obs.MedianLatency(snap)
	kept := f.Select(snap)
	resp := TracesResponse{
		Total:    len(snap),
		Count:    len(kept),
		Capacity: tr.Cap(),
		MedianUS: median.Microseconds(),
		Traces:   make([]Trace, 0, len(kept)),
	}
	for _, qt := range kept {
		resp.Traces = append(resp.Traces, toTrace(qt, obs.Anomalies(qt, median, f.LatencyFactor, f.SkewFactor)))
	}
	s.reply(w, resp)
}

// LatencyStat is a per-query-kind latency summary on the wire: sample count,
// log-bucketed p50/p90/p99 upper bounds and the exact observed max, all in
// microseconds.
type LatencyStat struct {
	Count uint64 `json:"count"`
	P50US int64  `json:"p50_us"`
	P90US int64  `json:"p90_us"`
	P99US int64  `json:"p99_us"`
	MaxUS int64  `json:"max_us"`
}

func toLatencies(in map[string]digitaltraces.LatencySummary) map[string]LatencyStat {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]LatencyStat, len(in))
	for k, s := range in {
		out[k] = LatencyStat{
			Count: s.Count,
			P50US: s.P50.Microseconds(),
			P90US: s.P90.Microseconds(),
			P99US: s.P99.Microseconds(),
			MaxUS: s.Max.Microseconds(),
		}
	}
	return out
}
