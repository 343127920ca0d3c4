// Package server exposes a digitaltraces.Engine over HTTP/JSON: a thin,
// dependency-free query-serving layer for top-k association search. The
// engine may be a single digitaltraces.DB or a shard.Cluster — the endpoints
// and wire formats are identical either way (cmd/serve -shards N).
//
// Endpoints:
//
//	GET/POST /topk        one top-k query (?entity=alice&k=10, or JSON body)
//	POST     /topk/batch  many top-k queries on the worker pool (TopKBatch)
//	POST     /visits      ingest visit records; optional immediate refresh
//	POST     /index/save  persist the serving index snapshot to the
//	                      configured path (WithIndexPath / serve -index-save)
//	GET      /stats       index + server statistics: snapshot generation and
//	                      last-swap time, shape, serving counters (+ per-shard
//	                      breakdown when the engine is sharded, + per-kind
//	                      latency quantiles when tracing is on)
//	GET      /traces      recent per-query traces from the engine's trace
//	                      ring (?slowest=N, ?min_ms=, ?entity=, ?cache=miss,
//	                      ?anomalies=1); 409 unless started with -trace N
//	GET      /healthz     liveness probe; on a coordinator over remote
//	                      shards (serve -shards-remote) a readiness probe:
//	                      every shard is pinged and an unreachable one turns
//	                      the reply into a 503 naming the failing address
//
// All concurrency control lives in the engine — queries answer lock-free
// against its atomically swapped immutable index snapshots, ingest touches
// only its small ingest locks — so the handlers are stateless apart from
// monotonic counters; one Server instance safely serves any number of
// in-flight requests, and queries keep answering at full speed while the
// engine rebuilds its index. Results over HTTP are bit-identical to the
// library API: handlers call the same TopK/TopKBatch methods with no extra
// rounding or re-ranking.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

// Server is an http.Handler serving one Engine.
type Server struct {
	eng        digitaltraces.Engine
	mux        *http.ServeMux
	maxK       int
	maxBatch   int
	indexPath  string     // /index/save heap-snapshot target; empty disables
	mappedPath string     // /index/save mapped-snapshot target; wins over indexPath
	saveMu     sync.Mutex // serializes /index/save writers
	started    time.Time

	queries    atomic.Int64 // /topk requests answered
	batches    atomic.Int64 // /topk/batch requests answered
	ingested   atomic.Int64 // visits accepted via /visits
	errors     atomic.Int64 // requests answered with a non-2xx status
	queryNanos atomic.Int64 // cumulative /topk + /topk/batch wall time
}

// Option customizes a Server.
type Option func(*Server)

// WithMaxK caps the k a single request may ask for (default 1000). Requests
// beyond the cap are rejected with 400 rather than scanning the population.
func WithMaxK(k int) Option {
	return func(s *Server) { s.maxK = k }
}

// WithMaxBatch caps the number of entities one /topk/batch request may name
// (default 10000). A batch occupies the engine's query worker pool for its
// whole run, so an unbounded batch would let a single request monopolize the
// serving CPUs for minutes.
func WithMaxBatch(n int) Option {
	return func(s *Server) { s.maxBatch = n }
}

// WithIndexPath names the file POST /index/save persists the serving index
// snapshot to (atomically: temp file + rename). Empty (the default) leaves
// the endpoint answering 409: operators must opt in to letting HTTP clients
// write server-local files (cmd/serve -index-save).
func WithIndexPath(path string) Option {
	return func(s *Server) { s.indexPath = path }
}

// WithMappedIndexPath names the file POST /index/save persists the serving
// index to with its sequence section (page-aligned, memory-mappable),
// loadable with no visit re-ingest via LoadMappedIndex (cmd/serve
// -index-mmap). The engine must implement digitaltraces.MappedPersister (*DB
// and *shard.Cluster both do). When both paths are configured the mapped one
// wins — a DB serving without a retained visit log can only save mapped.
func WithMappedIndexPath(path string) Option {
	return func(s *Server) { s.mappedPath = path }
}

// New wraps an Engine — a *digitaltraces.DB or a *shard.Cluster — in an HTTP
// handler. The engine may be shared with direct library callers; its own
// locks arbitrate.
func New(eng digitaltraces.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), maxK: 1000, maxBatch: 10000, started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/topk", s.handleTopK)
	s.mux.HandleFunc("/topk/batch", s.handleBatch)
	s.mux.HandleFunc("/visits", s.handleVisits)
	s.mux.HandleFunc("/index/save", s.handleSaveIndex)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/rebalance", s.handleRebalance)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Match mirrors digitaltraces.Match on the wire.
type Match struct {
	Entity string  `json:"entity"`
	Degree float64 `json:"degree"`
}

// Stats mirrors digitaltraces.QueryStats on the wire (elapsed in
// microseconds). Shards, Pulled and MergeUS describe the scatter-gather
// fan-out on a sharded engine; a plain DB omits them.
type Stats struct {
	Checked      int     `json:"checked"`
	ZeroSkipped  int     `json:"zero_skipped,omitempty"`
	BoundSkipped int     `json:"bound_skipped,omitempty"`
	PE           float64 `json:"pe"`
	Pruned       float64 `json:"pruned"`
	ElapsedUS    int64   `json:"elapsed_us"`
	CacheHit     bool    `json:"cache_hit,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Pulled       int     `json:"pulled,omitempty"`
	MergeUS      int64   `json:"merge_us,omitempty"`
}

func toStats(qs digitaltraces.QueryStats) Stats {
	return Stats{
		Checked: qs.Checked, ZeroSkipped: qs.ZeroSkipped, BoundSkipped: qs.BoundSkipped,
		PE: qs.PE, Pruned: qs.Pruned,
		ElapsedUS: qs.Elapsed.Microseconds(), CacheHit: qs.CacheHit,
		Shards: qs.Shards, Pulled: qs.Pulled, MergeUS: qs.Merge.Microseconds(),
	}
}

func toMatches(ms []digitaltraces.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{Entity: m.Entity, Degree: m.Degree}
	}
	return out
}

// TopKRequest is the /topk POST body.
type TopKRequest struct {
	Entity string `json:"entity"`
	K      int    `json:"k"`
}

// TopKResponse is the /topk reply.
type TopKResponse struct {
	Entity  string  `json:"entity"`
	K       int     `json:"k"`
	Matches []Match `json:"matches"`
	Stats   Stats   `json:"stats"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	switch r.Method {
	case http.MethodGet:
		req.Entity = r.URL.Query().Get("entity")
		if kStr := r.URL.Query().Get("k"); kStr != "" {
			k, err := strconv.Atoi(kStr)
			if err != nil {
				s.fail(w, http.StatusBadRequest, "bad k %q", kStr)
				return
			}
			req.K = k
		}
	case http.MethodPost:
		if !s.decode(w, r, &req) {
			return
		}
	default:
		s.fail(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if !s.checkK(w, req.K) {
		return
	}
	start := time.Now()
	matches, qs, err := s.eng.TopK(req.Entity, req.K)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.queryNanos.Add(int64(time.Since(start)))
	s.queries.Add(1)
	s.reply(w, TopKResponse{Entity: req.Entity, K: req.K, Matches: toMatches(matches), Stats: toStats(qs)})
}

// BatchRequest is the /topk/batch POST body. Workers ≤ 0 uses GOMAXPROCS.
type BatchRequest struct {
	Entities []string `json:"entities"`
	K        int      `json:"k"`
	Workers  int      `json:"workers"`
}

// BatchResponse is the /topk/batch reply: per-entity results plus aggregate
// statistics for the whole batch.
type BatchResponse struct {
	Results map[string][]Match `json:"results"`
	K       int                `json:"k"`
	Stats   Stats              `json:"stats"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if !s.checkK(w, req.K) {
		return
	}
	if len(req.Entities) > s.maxBatch {
		s.fail(w, http.StatusBadRequest, "batch of %d entities exceeds the %d cap", len(req.Entities), s.maxBatch)
		return
	}
	start := time.Now()
	results, qs, err := s.eng.TopKBatch(req.Entities, req.K, req.Workers)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.queryNanos.Add(int64(time.Since(start)))
	s.batches.Add(1)
	resp := BatchResponse{Results: make(map[string][]Match, len(results)), K: req.K, Stats: toStats(qs)}
	for name, ms := range results {
		resp.Results[name] = toMatches(ms)
	}
	s.reply(w, resp)
}

// Visit is one ingested presence on the wire. Times are RFC 3339.
type Visit struct {
	Entity string    `json:"entity"`
	Venue  string    `json:"venue"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// VisitsRequest is the /visits POST body. With Refresh true the new visits
// are folded into the index before replying; otherwise they are folded in
// lazily by the next query.
type VisitsRequest struct {
	Visits  []Visit `json:"visits"`
	Refresh bool    `json:"refresh"`
}

// VisitsResponse is the /visits reply — on failure too: Added is always the
// engine's authoritative count of records actually stored, so a client
// receiving an error knows how much of its batch landed (on a sharded
// engine, records after the failing one may have; see Engine.AddVisits)
// instead of guessing from the error text.
type VisitsResponse struct {
	Added     int    `json:"added"`
	Refreshed bool   `json:"refreshed"`
	Error     string `json:"error,omitempty"`
}

func (s *Server) handleVisits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req VisitsRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Visits) == 0 {
		s.fail(w, http.StatusBadRequest, "no visits in request")
		return
	}
	recs := make([]digitaltraces.VisitRecord, len(req.Visits))
	for i, v := range req.Visits {
		recs[i] = digitaltraces.VisitRecord{Entity: v.Entity, Venue: v.Venue, Start: v.Start, End: v.End}
	}
	added, err := s.eng.AddVisits(recs)
	s.ingested.Add(int64(added))
	if err != nil {
		// Some visits are already stored (see the Engine.AddVisits
		// contract); the error names the failing index and Added tells the
		// client how many records actually landed. Clients should fix the
		// failing record and re-send it alone, not replay the suffix — on a
		// sharded engine records after the failure may already be in.
		s.failVisits(w, http.StatusBadRequest, added, err)
		return
	}
	resp := VisitsResponse{Added: added}
	if req.Refresh {
		err := s.eng.Refresh()
		if errors.Is(err, digitaltraces.ErrBeyondHorizon) {
			// The incremental path can't extend the indexed horizon; pay for
			// the rebuild here rather than failing the ingest.
			err = s.eng.BuildIndex()
		}
		if err != nil {
			// The visits are in even though the fold failed; keep telling
			// the client how many.
			s.failVisits(w, http.StatusConflict, added, fmt.Errorf("refresh: %w", err))
			return
		}
		resp.Refreshed = true
	}
	s.reply(w, resp)
}

// failVisits reports an ingest failure without losing the ingest count: the
// standard error shape plus the authoritative number of records stored.
func (s *Server) failVisits(w http.ResponseWriter, status, added int, err error) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(VisitsResponse{Added: added, Error: err.Error()})
}

// SaveIndexResponse is the /index/save reply. Mapped reports whether the
// file was written with the sequence section (WithMappedIndexPath) or without
// (WithIndexPath).
type SaveIndexResponse struct {
	Path      string  `json:"path"`
	Bytes     int64   `json:"bytes"`
	Mapped    bool    `json:"mapped,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handleSaveIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.indexPath == "" && s.mappedPath == "" {
		s.fail(w, http.StatusConflict, "no snapshot path configured; start the server with an index path (cmd/serve -index-save or -index-mmap)")
		return
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	start := time.Now()
	var (
		n    int64
		err  error
		path = s.indexPath
	)
	if s.mappedPath != "" {
		path = s.mappedPath
		n, err = SaveMappedIndexFile(s.eng, s.mappedPath)
	} else {
		n, err = SaveIndexFile(s.eng, s.indexPath)
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "saving index: %v", err)
		return
	}
	s.reply(w, SaveIndexResponse{
		Path:      path,
		Bytes:     n,
		Mapped:    s.mappedPath != "",
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// SaveIndexFile persists the engine's serving index snapshot to path
// atomically and durably: the snapshot is written to a uniquely named
// same-directory temp file (concurrent savers — a /index/save request
// racing the shutdown hook — each write their own file, and the last
// complete rename wins), fsynced, and renamed into place, so a crash at any
// point never leaves a truncated snapshot where a warm restart would look
// for one. Shared by the /index/save handler and cmd/serve's shutdown hook.
func SaveIndexFile(eng digitaltraces.Engine, path string) (int64, error) {
	return saveAtomic(path, eng.SaveIndex)
}

// SaveMappedIndexFile is SaveIndexFile with the sequence section
// (digitaltraces.MappedPersister.SaveMappedIndex), with the same atomic
// temp-file + rename durability. Shared by the /index/save handler
// and cmd/serve's -index-mmap shutdown hook.
func SaveMappedIndexFile(eng digitaltraces.Engine, path string) (int64, error) {
	mp, ok := eng.(digitaltraces.MappedPersister)
	if !ok {
		return 0, fmt.Errorf("engine %T cannot write mapped index snapshots", eng)
	}
	return saveAtomic(path, mp.SaveMappedIndex)
}

func saveAtomic(path string, save func(w io.Writer) (int64, error)) (_ int64, err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+"-*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	n, err := save(f)
	if err == nil {
		err = f.Sync() // data durable before the rename can publish it
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return 0, err
	}
	// Best-effort directory sync so the rename itself survives power loss;
	// a filesystem that refuses directory fsync still has the atomic write.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// ShardStat is the per-shard /stats breakdown for sharded engines: how many
// entities the router placed on the shard and its index shape, so operators
// can spot partition skew at a glance.
type ShardStat struct {
	Shard    int `json:"shard"`
	Entities int `json:"entities"`
	// Owned counts entities the current slot map routes here — the load the
	// rebalance planner levels. Entities is the physical count, which also
	// includes stale copies left behind by slot migrations.
	Owned int `json:"owned"`
	// Slots is how many of the 256 routing slots the map assigns here.
	Slots         int     `json:"slots"`
	IndexEntities int     `json:"index_entities"`
	Nodes         int     `json:"nodes"`
	Leaves        int     `json:"leaves"`
	MemoryBytes   int     `json:"memory_bytes"`
	BuildMS       float64 `json:"build_ms"`
	Generation    uint64  `json:"generation"`
	LastSwap      string  `json:"last_swap,omitempty"` // RFC 3339; empty before first build
	DirtyCount    int     `json:"dirty_count"`
	LastRefreshMS float64 `json:"last_refresh_ms"` // 0 when the shard's snapshot came from a full build
}

// StatsResponse is the /stats reply: the index shape (cluster totals for a
// sharded engine) plus serving counters, and the per-shard breakdown when
// the engine is sharded. Generation counts index snapshot swaps (a cluster
// sums its shards') and LastSwap is when the serving snapshot last changed —
// together they let operators verify that ingest is actually reaching the
// serving index without ever blocking it. DirtyCount and LastRefreshMS
// complete the picture for the background auto-refresh policy: how much dirt
// is waiting and what the last incremental fold cost.
type StatsResponse struct {
	Index struct {
		Entities      int     `json:"entities"`
		Nodes         int     `json:"nodes"`
		Leaves        int     `json:"leaves"`
		MemoryBytes   int     `json:"memory_bytes"`
		BuildMS       float64 `json:"build_ms"`
		Generation    uint64  `json:"generation"`
		LastSwap      string  `json:"last_swap,omitempty"` // RFC 3339; empty before first build
		DirtyCount    int     `json:"dirty_count"`
		LastRefreshMS float64 `json:"last_refresh_ms"` // 0 when the snapshot came from a full build
		// Query-cache counters (zero unless the engine was built with a
		// query cache — digitaltraces.WithQueryCache or a cluster
		// CacheSize). Hits and misses count lookups, evictions count
		// capacity displacements; a sharded engine reports its
		// cluster-level cache's.
		CacheHits      uint64 `json:"cache_hits"`
		CacheMisses    uint64 `json:"cache_misses"`
		CacheEvictions uint64 `json:"cache_evictions"`
		CacheEntries   int    `json:"cache_entries"`
		// Mapped reports that the index serves off a read-only file mapping
		// (LoadMappedIndex); the pool counters are the sequence buffer pool's
		// block-cache traffic — PoolHitRate near 1 means the hot entities'
		// pages are resident and queries rarely touch the file.
		Mapped      bool    `json:"mapped,omitempty"`
		PoolHits    int     `json:"pool_hits,omitempty"`
		PoolMisses  int     `json:"pool_misses,omitempty"`
		PoolHitRate float64 `json:"pool_hit_rate,omitempty"`
		// Latencies holds per-query-kind latency summaries (p50/p90/p99/max)
		// when the engine runs with a trace ring (WithTracing / cluster
		// TraceSize / serve -trace N); absent otherwise.
		Latencies map[string]LatencyStat `json:"latencies,omitempty"`
	} `json:"index"`
	Entities int         `json:"entities"`
	Venues   int         `json:"venues"`
	Levels   int         `json:"levels"`
	Shards   []ShardStat `json:"shards,omitempty"`
	// SlotEpoch and Slots expose a sharded engine's routing table: the
	// slot-map publish version and the slot→shard assignment (256 entries),
	// so operators can see exactly where a rebalance moved ownership.
	SlotEpoch uint64 `json:"slot_epoch,omitempty"`
	Slots     []int  `json:"slots,omitempty"`
	Server    struct {
		UptimeS        float64 `json:"uptime_s"`
		Queries        int64   `json:"queries"`
		BatchQueries   int64   `json:"batch_queries"`
		VisitsIngested int64   `json:"visits_ingested"`
		Errors         int64   `json:"errors"`
		AvgQueryUS     float64 `json:"avg_query_us"`
	} `json:"server"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	var resp StatsResponse
	ix := s.eng.IndexStats()
	resp.Index.Entities = ix.Entities
	resp.Index.Nodes = ix.Nodes
	resp.Index.Leaves = ix.Leaves
	resp.Index.MemoryBytes = ix.MemoryBytes
	resp.Index.BuildMS = float64(ix.BuildTime.Microseconds()) / 1e3
	resp.Index.Generation = ix.Generation
	resp.Index.LastSwap = swapTime(ix.LastSwap)
	resp.Index.DirtyCount = ix.DirtyCount
	resp.Index.LastRefreshMS = float64(ix.LastRefreshDuration.Microseconds()) / 1e3
	resp.Index.CacheHits = ix.CacheHits
	resp.Index.CacheMisses = ix.CacheMisses
	resp.Index.CacheEvictions = ix.CacheEvictions
	resp.Index.CacheEntries = ix.CacheEntries
	resp.Index.Mapped = ix.Mapped
	resp.Index.PoolHits = ix.PoolHits
	resp.Index.PoolMisses = ix.PoolMisses
	if t := ix.PoolHits + ix.PoolMisses; t > 0 {
		resp.Index.PoolHitRate = float64(ix.PoolHits) / float64(t)
	}
	resp.Index.Latencies = toLatencies(ix.Latencies)
	resp.Entities = s.eng.NumEntities()
	resp.Venues = s.eng.NumVenues()
	resp.Levels = s.eng.Levels()
	if se, ok := s.eng.(interface {
		SlotEpoch() uint64
		SlotAssignment() []int
	}); ok {
		resp.SlotEpoch = se.SlotEpoch()
		resp.Slots = se.SlotAssignment()
	}
	// Sharded engines additionally expose the per-shard breakdown; a plain
	// DB serves the same response without the "shards" field.
	if sh, ok := s.eng.(interface{ ShardStats() []shard.ShardStat }); ok {
		for _, st := range sh.ShardStats() {
			resp.Shards = append(resp.Shards, ShardStat{
				Shard:         st.Shard,
				Entities:      st.Entities,
				Owned:         st.Owned,
				Slots:         st.Slots,
				IndexEntities: st.Index.Entities,
				Nodes:         st.Index.Nodes,
				Leaves:        st.Index.Leaves,
				MemoryBytes:   st.Index.MemoryBytes,
				BuildMS:       float64(st.Index.BuildTime.Microseconds()) / 1e3,
				Generation:    st.Index.Generation,
				LastSwap:      swapTime(st.Index.LastSwap),
				DirtyCount:    st.Index.DirtyCount,
				LastRefreshMS: float64(st.Index.LastRefreshDuration.Microseconds()) / 1e3,
			})
		}
	}
	q, b := s.queries.Load(), s.batches.Load()
	resp.Server.UptimeS = time.Since(s.started).Seconds()
	resp.Server.Queries = q
	resp.Server.BatchQueries = b
	resp.Server.VisitsIngested = s.ingested.Load()
	resp.Server.Errors = s.errors.Load()
	if q+b > 0 {
		resp.Server.AvgQueryUS = float64(s.queryNanos.Load()) / float64(q+b) / 1e3
	}
	s.reply(w, resp)
}

// swapTime renders a snapshot swap time for the wire: RFC 3339, empty when
// the index has never been built.
func swapTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// handleRebalance serves POST /rebalance on sharded engines: plan slot moves
// from the current per-shard owned-entity skew and execute them live (slot
// migrations fence ingest per slot; queries stay exact throughout — see
// shard.MigrateSlot). The optional max_moves query parameter caps how many
// slots one call may move; the reply is the shard.RebalanceReport: the moves
// performed and the before/after skew. Queries keep answering during the
// call — rebalancing is an online operation, not a maintenance window.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	rb, ok := s.eng.(interface {
		Rebalance(maxMoves int) (shard.RebalanceReport, error)
	})
	if !ok {
		s.fail(w, http.StatusConflict, "engine is not a sharded cluster — nothing to rebalance")
		return
	}
	maxMoves := 0
	if v := r.URL.Query().Get("max_moves"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.fail(w, http.StatusBadRequest, "max_moves must be a positive integer, got %q", v)
			return
		}
		maxMoves = n
	}
	rep, err := rb.Rebalance(maxMoves)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "rebalance: %v", err)
		return
	}
	s.reply(w, rep)
}

// HealthShard is one shard's row in the /healthz readiness reply.
type HealthShard struct {
	Shard      int    `json:"shard"`
	Addr       string `json:"addr,omitempty"` // empty for in-process shards
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`
	Entities   int    `json:"entities"`
	Generation uint64 `json:"generation"`
}

// HealthResponse is the /healthz reply for engines that expose per-shard
// health (a coordinator over remote shards). OK is the readiness verdict;
// Failing names every unreachable shard's address so an operator (or an
// orchestrator's probe log) sees which host is down without parsing rows.
type HealthResponse struct {
	OK      bool          `json:"ok"`
	Failing []string      `json:"failing,omitempty"`
	Shards  []HealthShard `json:"shards"`
}

// handleHealth is a liveness probe for single-DB and in-process-sharded
// engines, and a real readiness probe for a coordinator over remote shards:
// every shard is pinged concurrently, and any unreachable shard turns the
// probe into a 503 naming the failing address.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	hp, ok := s.eng.(interface{ Health() []shard.ShardHealth })
	if !ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	rows := hp.Health()
	resp := HealthResponse{OK: true, Shards: make([]HealthShard, len(rows))}
	for i, h := range rows {
		resp.Shards[i] = HealthShard{
			Shard: h.Shard, Addr: h.Addr, OK: h.OK, Error: h.Err,
			Entities: h.Entities, Generation: h.Generation,
		}
		if !h.OK {
			resp.OK = false
			name := h.Addr
			if name == "" {
				name = fmt.Sprintf("shard %d", h.Shard)
			}
			resp.Failing = append(resp.Failing, name)
		}
	}
	status := http.StatusOK
	if !resp.OK {
		s.errors.Add(1)
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// checkK rejects out-of-range k values before they reach the search.
func (s *Server) checkK(w http.ResponseWriter, k int) bool {
	if k < 1 || k > s.maxK {
		s.fail(w, http.StatusBadRequest, "k %d outside [1,%d]", k, s.maxK)
		return false
	}
	return true
}

// decode parses a JSON body, rejecting unknown fields to catch client typos.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
