package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

// DefaultStreamTTL is how long an idle search stream survives between pulls
// before the server expires it. A gather round is sub-second; the TTL only
// has to outlive a coordinator hiccup, not a session.
const DefaultStreamTTL = 2 * time.Minute

// maxRequestBytes caps a binary request body read into memory. Ingest
// batches dominate; 1 GiB of records is far beyond anything the coordinator
// sends in one call.
const maxRequestBytes = 1 << 30

// ServerConfig tunes a shard server.
type ServerConfig struct {
	// StreamTTL expires search streams idle for this long (DefaultStreamTTL
	// when zero). Expiry is the backstop for releases that never arrive —
	// the client's releases ride on its next request to this server — so a
	// crashed or idle coordinator cannot pin snapshots forever.
	StreamTTL time.Duration
}

// Server hosts one digitaltraces.DB shard behind the pull-based search
// protocol. Handler returns the http.Handler to mount (cmd/shardserve
// serves it at the root); Close expires all live streams and stops the
// sweeper. The DB stays owned by the caller — Close does not close it.
type Server struct {
	db  *digitaltraces.DB
	eng shard.Backend // the DB behind the same adapter the cluster uses

	mu      sync.Mutex
	streams map[uint64]*serverStream
	nextID  uint64

	// slotEpoch is the newest slot-map epoch a coordinator has pushed
	// (POST /shard/epoch). The server does not interpret it — shards hold
	// entities, not routing state — it only echoes it on every response so
	// a coordinator behind the pusher detects its own staleness.
	slotEpoch atomic.Uint64

	ttl  time.Duration
	stop chan struct{}
	once sync.Once
}

// serverStream is one open incremental search plus everything the stream
// has emitted, buffered so a positional pull can re-serve any range
// identically (the retry-idempotence contract). Its search is pulled and
// closed only under mu — the coordinator drives a stream from one
// goroutine, so contention is nil — and closed as soon as it ends.
type serverStream struct {
	mu       sync.Mutex
	st       shard.Stream
	buf      []digitaltraces.Match
	bound    float64
	live     bool
	lastUsed atomic.Int64 // UnixNano, read by the sweeper without mu
}

// pull serves the positional pull [off, off+want) at floor, extending the
// buffer past its high-water mark from the search; a search that ends is
// closed at once. want is wire-capped, so off+want cannot overflow. A
// failure comes with the HTTP status it answers with.
func (ss *serverStream) pull(off, want uint64, floor float64) (pullResp, int, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastUsed.Store(time.Now().UnixNano())
	have := uint64(len(ss.buf))
	if off > have {
		return pullResp{}, http.StatusBadRequest, fmt.Errorf("pull offset %d beyond the %d results emitted", off, have)
	}
	// Any range already emitted is re-served from the buffer byte-for-byte,
	// which is what makes a re-sent pull idempotent.
	end := off + want
	if end > have && ss.live {
		b, err := ss.st.Pull(int(end-have), floor)
		if err != nil {
			return pullResp{}, http.StatusInternalServerError, err
		}
		ss.buf = append(ss.buf, b.Matches...)
		ss.bound, ss.live = b.Bound, b.Live
		if !ss.live {
			ss.st.Close()
		}
	}
	end = min(end, uint64(len(ss.buf)))
	return pullResp{
		Matches: ss.buf[off:end],
		Bound:   ss.bound,
		// More remains if the stream is live or the response stopped short
		// of the buffered high-water mark (a re-served older range).
		Live:    ss.live || end < uint64(len(ss.buf)),
		Checked: uint64(ss.st.Checked()),
	}, 0, nil
}

// close releases the stream's search (a no-op if it already ended).
func (ss *serverStream) close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.st.Close()
	ss.live = false
}

// NewServer wraps db as a shard server. The caller keeps ownership of db
// (and typically also mounts its own ingest/build pipeline or lets the
// coordinator drive everything over the protocol).
func NewServer(db *digitaltraces.DB, cfg ServerConfig) *Server {
	ttl := cfg.StreamTTL
	if ttl <= 0 {
		ttl = DefaultStreamTTL
	}
	s := &Server{
		db:      db,
		eng:     shard.Local(db),
		streams: map[uint64]*serverStream{},
		ttl:     ttl,
		stop:    make(chan struct{}),
	}
	go s.sweep()
	return s
}

// Close releases every live stream and stops the TTL sweeper. The wrapped
// DB is not closed.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
	s.release(s.streamIDs(func(*serverStream) bool { return true }))
}

// streamIDs lists the registered streams pick selects.
func (s *Server) streamIDs(pick func(*serverStream) bool) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []uint64
	for id, ss := range s.streams {
		if pick(ss) {
			ids = append(ids, id)
		}
	}
	return ids
}

// release unregisters the named streams, then closes each under its own
// lock, outside the registry's. Unknown IDs are ignored: a release may
// repeat, or follow the TTL.
func (s *Server) release(ids []uint64) {
	gone := make([]*serverStream, 0, len(ids))
	s.mu.Lock()
	for _, id := range ids {
		if ss := s.streams[id]; ss != nil {
			delete(s.streams, id)
			gone = append(gone, ss)
		}
	}
	s.mu.Unlock()
	for _, ss := range gone {
		ss.close()
	}
}

// sweep expires idle streams every TTL/2.
func (s *Server) sweep() {
	t := time.NewTicker(s.ttl / 2)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.release(s.streamIDs(func(ss *serverStream) bool {
				return now.Sub(time.Unix(0, ss.lastUsed.Load())) > s.ttl
			}))
		}
	}
}

// statsResp is the JSON body of GET /shard/stats: the static shape the
// client caches at Dial (epoch, unit, hierarchy) plus the mutable serving
// state and full index statistics.
type statsResp struct {
	EpochNS    int64                    `json:"epoch_ns"`
	EpochOK    bool                     `json:"epoch_ok"`
	TimeUnitNS int64                    `json:"time_unit_ns"`
	Venues     int                      `json:"venues"`
	Levels     int                      `json:"levels"`
	Entities   int                      `json:"entities"`
	Pending    int                      `json:"pending"`
	Generation uint64                   `json:"generation"`
	GenOK      bool                     `json:"gen_ok"`
	SlotEpoch  uint64                   `json:"slot_epoch"`
	Index      digitaltraces.IndexStats `json:"index"`
}

// healthResp is the JSON body of GET /shard/healthz.
type healthResp struct {
	OK         bool   `json:"ok"`
	Entities   int    `json:"entities"`
	Pending    int    `json:"pending"`
	Generation uint64 `json:"generation"`
	GenOK      bool   `json:"gen_ok"`
	SlotEpoch  uint64 `json:"slot_epoch"`
	Streams    int    `json:"streams"`
}

// errResp is every non-200 body: {"error": "..."}.
type errResp struct {
	Error string `json:"error"`
}

// Handler returns the shard protocol handler, rooted at /shard/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/open", s.handleOpen)
	mux.HandleFunc("POST /shard/pull", s.handlePull)
	mux.HandleFunc("POST /shard/visitsof", s.handleVisitsOf)
	mux.HandleFunc("POST /shard/ingest", s.handleIngest)
	mux.HandleFunc("GET /shard/stats", s.handleStats)
	mux.HandleFunc("POST /shard/build", s.handleBuild)
	mux.HandleFunc("POST /shard/refresh", s.handleRefresh)
	mux.HandleFunc("GET /shard/index", s.handleSaveIndex)
	mux.HandleFunc("POST /shard/index", s.handleLoadIndex)
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

// state reads the shard's serving state, pending before generation: zero
// pending then proves the reported generation covers every acknowledged
// write (the order shard.Cluster's cache version reads them in).
func (s *Server) state() shardState {
	pending := s.db.PendingEntities()
	gen, ok := s.db.SnapshotGeneration()
	return shardState{
		Entities:   uint64(s.db.NumEntities()),
		Pending:    uint64(pending),
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

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeOpenReq(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad open request: %v", err))
		return
	}
	s.release(req.Release)
	var (
		visits []digitaltraces.Visit
		st     shard.Stream
		first  shard.Batch
	)
	if req.Entity != "" {
		visits, st, first, err = s.eng.OpenSearchEntity(req.Entity, int(req.Want))
	} else {
		st, first, err = s.eng.OpenSearch(req.Visits, int(req.Want), req.Floor)
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if !first.Live {
		st.Close()
	}
	ss := &serverStream{st: st, buf: first.Matches, bound: first.Bound, live: first.Live}
	ss.lastUsed.Store(time.Now().UnixNano())
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.streams[id] = ss
	s.mu.Unlock()
	writeBinary(w, encodeOpenResp(openResp{StreamID: id, Generation: st.Generation(), Visits: visits, First: pullResp{
		Matches: first.Matches, Bound: first.Bound, Live: first.Live, Checked: uint64(st.Checked()), State: s.state(),
	}}))
}

func (s *Server) handlePull(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodePullReq(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad pull request: %v", err))
		return
	}
	s.release(req.Release)
	s.mu.Lock()
	ss := s.streams[req.StreamID]
	s.mu.Unlock()
	if ss == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("stream %d not found (closed or expired)", req.StreamID))
		return
	}
	resp, code, err := ss.pull(req.Offset, req.Want, req.Floor)
	if err != nil {
		httpError(w, code, fmt.Sprintf("pulling stream %d: %v", req.StreamID, err))
		return
	}
	resp.State = s.state()
	writeBinary(w, encodePullResp(resp))
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
	// client must see both.
	n, err := s.db.AddVisits(req.Records)
	resp := ingestResp{Stored: uint64(n), FailIndex: -1, State: s.state()}
	if err != nil {
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
	st := s.state()
	resp := statsResp{
		TimeUnitNS: s.db.TimeUnit().Nanoseconds(),
		Venues:     s.db.NumVenues(),
		Levels:     s.db.Levels(),
		Entities:   int(st.Entities),
		Pending:    int(st.Pending),
		Generation: st.Generation,
		GenOK:      st.GenOK,
		SlotEpoch:  st.SlotEpoch,
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

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	// The ErrBeyondHorizon sentinel cannot usefully cross the wire (errors
	// travel as strings), so the escalation the cluster performs for local
	// shards happens here instead: dirt past the indexed horizon rebuilds
	// this one shard.
	if err := s.db.Refresh(); err != nil {
		if errors.Is(err, digitaltraces.ErrBeyondHorizon) {
			if err := s.db.BuildIndex(); err != nil {
				httpError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSaveIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.db.SaveIndex(w); err != nil {
		// Headers are gone; the client detects the short body by the
		// snapshot format's own framing.
		return
	}
}

func (s *Server) handleLoadIndex(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	load := s.db.LoadIndex
	if r.URL.Query().Get("lenient") == "1" {
		// The slot-routed envelope path: the section may name entities the
		// slot map no longer routes to this shard; skip them instead of
		// refusing the whole load.
		load = s.db.LoadIndexLenient
	}
	if err := load(body); err != nil {
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
	st := s.state()
	s.mu.Lock()
	n := len(s.streams)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthResp{
		OK:         true,
		Entities:   int(st.Entities),
		Pending:    int(st.Pending),
		Generation: st.Generation,
		GenOK:      st.GenOK,
		SlotEpoch:  st.SlotEpoch,
		Streams:    n,
	})
}
