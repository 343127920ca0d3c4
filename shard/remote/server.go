package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"digitaltraces"
	"digitaltraces/shard"
)

// maxRequestBytes caps a binary request body read into memory. Ingest
// batches dominate; 1 GiB of records is far beyond anything the coordinator
// sends in one call.
const maxRequestBytes = 1 << 30

// ServerConfig tunes a shard server. It has no fields: a shard server keeps
// no per-query state to tune.
type ServerConfig struct{}

// Server hosts one digitaltraces.DB shard behind the shard protocol. Handler
// returns the http.Handler to mount (cmd/shardserve serves it at the root).
// The DB stays owned by the caller.
type Server struct {
	db  *digitaltraces.DB
	eng shard.Backend // the DB behind the same adapter the cluster uses

	// slotEpoch is the newest slot-map epoch a coordinator has pushed
	// (POST /shard/epoch). The server does not interpret it — shards hold
	// entities, not routing state — it only echoes it on every response so
	// a coordinator behind the pusher detects its own staleness.
	slotEpoch atomic.Uint64
}

// NewServer wraps db as a shard server. The caller keeps ownership of db
// (and typically also mounts its own ingest/build pipeline or lets the
// coordinator drive everything over the protocol).
func NewServer(db *digitaltraces.DB, _ ServerConfig) *Server {
	return &Server{db: db, eng: shard.Local(db)}
}

// Close does nothing: the server holds nothing between requests, and the
// wrapped DB is the caller's.
func (s *Server) Close() {}

// statsResp is the JSON body of GET /shard/stats: the static shape the
// client caches at Dial (epoch, unit, hierarchy) plus the serving state and
// full index statistics.
type statsResp struct {
	EpochNS    int64                    `json:"epoch_ns"`
	EpochOK    bool                     `json:"epoch_ok"`
	TimeUnitNS int64                    `json:"time_unit_ns"`
	Venues     int                      `json:"venues"`
	Levels     int                      `json:"levels"`
	State      shardState               `json:"state"`
	Index      digitaltraces.IndexStats `json:"index"`
}

// healthResp is the JSON body of GET /shard/healthz.
type healthResp struct {
	OK    bool       `json:"ok"`
	State shardState `json:"state"`
}

// errResp is every non-200 body: {"error": "..."}.
type errResp struct {
	Error string `json:"error"`
}

// Handler returns the shard protocol handler, rooted at /shard/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/rank", s.handleRank)
	mux.HandleFunc("POST /shard/visitsof", s.handleVisitsOf)
	mux.HandleFunc("POST /shard/ingest", s.handleIngest)
	mux.HandleFunc("GET /shard/stats", s.handleStats)
	mux.HandleFunc("POST /shard/build", s.handleBuild)
	mux.HandleFunc("GET /shard/index", s.handleSaveIndex)
	mux.HandleFunc("POST /shard/index", s.handleOpenIndex)
	mux.HandleFunc("POST /shard/epoch", s.handleEpoch)
	mux.HandleFunc("GET /shard/healthz", s.handleHealthz)
	return protoCheck(mux)
}

// protoCheck rejects requests from a different protocol version before any
// payload is decoded.
func protoCheck(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(protoHeader); v != "" && v != ProtoVersion {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("protocol version %s, this server speaks %s", v, ProtoVersion))
			return
		}
		next.ServeHTTP(w, r)
	})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errResp{Error: msg})
}

// state reads the shard's serving state — atomic loads only, so no response
// waits on the DB's ingest lock.
func (s *Server) state() shardState {
	gen, ok := s.db.SnapshotGeneration()
	return shardState{
		Entities:   uint64(s.db.NumEntities()),
		Generation: gen,
		GenOK:      ok,
		SlotEpoch:  s.slotEpoch.Load(),
	}
}

// readBody slurps a bounded binary request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	return b, true
}

func writeBinary(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeRankReq(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad rank request: %v", err))
		return
	}
	ranked, err := s.eng.Rank(req)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeBinary(w, encodeRankResp(rankResp{Ranked: ranked, State: s.state()}))
}

func (s *Server) handleVisitsOf(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeVisitsOfReq(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad visitsof request: %v", err))
		return
	}
	visits, err := s.db.VisitsOf(req.Entity)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeBinary(w, encodeVisitsOfResp(visitsOfResp{Visits: visits, State: s.state()}))
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeIngestReq(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad ingest request: %v", err))
		return
	}
	// Partial failure travels in-band (200 with FailIndex set), not as an
	// HTTP error: the stored count is authoritative either way and the
	// client must see both. A failed fold of every stored record reports
	// FailIndex = len(records) and the fold's own error.
	n, err := s.db.AddKeyedVisits(req.Records, req.Keys)
	resp := ingestResp{Stored: uint64(n), FailIndex: -1, State: s.state()}
	switch {
	case err != nil && n == len(req.Records):
		resp.FailIndex, resp.ErrMsg = int64(n), err.Error()
	case err != nil:
		resp.FailIndex = int64(n) // DB.AddVisits stops at the first failure
		resp.ErrMsg = innerIngestError(err)
	}
	writeBinary(w, encodeIngestResp(resp))
}

// innerIngestError strips DB.AddVisits' "visit %d: " wrapper so the client
// can re-wrap with the index it knows, keeping the cluster's merged error
// shape identical to the in-process one.
func innerIngestError(err error) string {
	type unwrapper interface{ Unwrap() error }
	if u, ok := err.(unwrapper); ok {
		if inner := u.Unwrap(); inner != nil {
			return inner.Error()
		}
	}
	return err.Error()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResp{
		TimeUnitNS: s.db.TimeUnit().Nanoseconds(),
		Venues:     s.db.NumVenues(),
		Levels:     s.db.Levels(),
		State:      s.state(),
		Index:      s.db.IndexStats(),
	}
	if e, ok := s.db.Epoch(); ok {
		resp.EpochNS, resp.EpochOK = e.UnixNano(), true
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if err := s.db.BuildIndex(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSaveIndex buffers the image before the first byte goes out, so a
// failed save is an error status, never a 200 with a short body.
func (s *Server) handleSaveIndex(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if _, err := s.db.SaveIndex(&buf); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// handleOpenIndex opens the image in the request body. The DB serves it off
// the received bytes, which it keeps.
func (s *Server) handleOpenIndex(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading index image: %v", err))
		return
	}
	if err := s.db.OpenImage(b); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEpoch records the coordinator's newest slot-map epoch, monotonically
// — out-of-order pushes (or a stale coordinator's) never regress it — and is
// echoed on every subsequent response's piggybacked state.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	e, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad epoch parameter: %v", err))
		return
	}
	for {
		cur := s.slotEpoch.Load()
		if e <= cur || s.slotEpoch.CompareAndSwap(cur, e) {
			break
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthResp{OK: true, State: s.state()})
}
