package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

// Defaults for Options zero values.
const (
	DefaultCallTimeout    = 10 * time.Second
	DefaultControlTimeout = 10 * time.Minute
	DefaultMaxConns       = 16
	DefaultRetries        = 2
)

// Options tunes a Client.
type Options struct {
	// CallTimeout bounds each hot-path RPC (rank, visits, ingest, ping). A
	// call that outlives it returns a named shard error — never a hang — and
	// is not retried: the deadline already spent the latency budget. Default
	// DefaultCallTimeout.
	CallTimeout time.Duration
	// ControlTimeout bounds slow control-plane RPCs: build and index
	// save/open, which scale with the shard's data. Default
	// DefaultControlTimeout.
	ControlTimeout time.Duration
	// MaxConns caps connections to this shard (idle keep-alives are pooled
	// up to the same cap, so a steady coordinator reuses warm connections
	// for every query). Default DefaultMaxConns.
	MaxConns int
	// Retries is how many times a transport-level failure (connection
	// refused, reset, broken keep-alive) is retried, on idempotent calls
	// only — ingest is never retried, and HTTP-level errors and expired
	// deadlines never retry. Default DefaultRetries; negative disables.
	Retries int
}

// Metrics counts a client's network activity, for cmd/bench -scenario
// remote's round-trips-per-query accounting.
type Metrics struct {
	RPCs    int64 // requests issued, retries included
	Pulls   int64 // rank calls, at most one per shard per query
	Retries int64 // transport-level retries performed
}

// Client is a remote shard: it implements shard.Backend over the shard
// protocol, so a coordinator lists it in shard.Config.Backends and
// the cluster's scatter-gather, cache and trace machinery work unchanged.
//
// # Single-coordinator state caching
//
// The client caches the shard's serving state (entity count, snapshot
// generation) from every protocol response and answers
// NumEntities/SnapshotGeneration from that cache, so the
// coordinator's cache-version derivation costs no round trips. This is
// sound for the cluster cache under one coordinator — all ingest routes
// through this client, so state the cache check reads can lag only behind
// responses still in flight, and the cluster stores only when the version
// it re-reads after the fan-out (whose rank responses refresh this state)
// is unchanged — a stale cache can cost a missed store, never a wrong hit.
// Running several coordinators against one shard server keeps answers
// exact (every query pins real server-side snapshots) but is outside the
// cache's soundness argument; disable Config.CacheSize in that topology.
type Client struct {
	addr string
	base string
	hc   *http.Client

	callT time.Duration
	ctrlT time.Duration
	retry int

	// Static shape, fetched once at Dial: NewCluster's compatibility checks
	// read these without network calls.
	epoch   time.Time
	epochOK bool
	unit    time.Duration
	venues  int
	levels  int

	mu sync.Mutex
	st shardState

	// slotEpoch is the max slot-map epoch seen on any response, held apart
	// from st: adopt replaces st wholesale on a generation advance, and the
	// epoch must never regress with it (a lower echoed epoch only means that
	// response raced an epoch push, not that the map went backwards).
	slotEpoch atomic.Uint64

	rpcs    atomic.Int64
	pulls   atomic.Int64
	retries atomic.Int64
}

var _ shard.Backend = (*Client)(nil)

// Dial connects to a shard server at addr ("host:port", or a full
// "http://host:port" base URL) and fetches its static shape — epoch, time
// unit and hierarchy — which NewCluster's compatibility checks read without
// further round trips. Dial fails fast if the server is unreachable or
// speaks a different protocol version.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	if opts.ControlTimeout <= 0 {
		opts.ControlTimeout = DefaultControlTimeout
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = DefaultMaxConns
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		addr:  strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base:  strings.TrimRight(base, "/"),
		callT: opts.CallTimeout,
		ctrlT: opts.ControlTimeout,
		retry: opts.Retries,
		hc: &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: opts.CallTimeout, KeepAlive: 30 * time.Second}).DialContext,
				MaxIdleConns:        opts.MaxConns,
				MaxIdleConnsPerHost: opts.MaxConns,
				MaxConnsPerHost:     opts.MaxConns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	if err := c.refreshStats(); err != nil {
		return nil, err
	}
	return c, nil
}

// Addr returns the shard server's address, for trace rows and health
// reports.
func (c *Client) Addr() string { return c.addr }

// Metrics snapshots the client's network counters.
func (c *Client) Metrics() Metrics {
	return Metrics{RPCs: c.rpcs.Load(), Pulls: c.pulls.Load(), Retries: c.retries.Load()}
}

// adopt folds a response's piggybacked state into the cache, monotonically:
// responses can be applied out of order (concurrent calls land as they
// land), and regressing the generation could revive a cache version the
// server has moved past — a wrong hit, not just a miss. Generations only
// grow, and within one generation entities only grow, so
// newest-by-generation with per-field max inside a generation is always
// current-or-conservative.
func (c *Client) adopt(st shardState) {
	for {
		cur := c.slotEpoch.Load()
		if st.SlotEpoch <= cur || c.slotEpoch.CompareAndSwap(cur, st.SlotEpoch) {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case st.Generation > c.st.Generation:
		c.st = st
	case st.Generation == c.st.Generation:
		c.st.Entities = max(c.st.Entities, st.Entities)
		c.st.GenOK = c.st.GenOK || st.GenOK
	}
}

// SlotEpoch reports the max slot-map epoch observed on any response from
// this shard server — the coordinator compares it against its own map's
// epoch before answering (shard.Cluster's stale-coordinator check).
func (c *Client) SlotEpoch() uint64 { return c.slotEpoch.Load() }

// PushSlotEpoch tells the shard server the coordinator's slot map advanced
// to epoch. The server keeps the max and echoes it on every response, so any
// other coordinator still routing by an older map sees the newer epoch and
// refuses to answer rather than wrong-route.
func (c *Client) PushSlotEpoch(epoch uint64) error {
	_, err := c.call(fmt.Sprintf("/shard/epoch?epoch=%d", epoch), []byte{}, c.callT, true)
	if err == nil {
		for {
			cur := c.slotEpoch.Load()
			if epoch <= cur || c.slotEpoch.CompareAndSwap(cur, epoch) {
				break
			}
		}
	}
	return err
}

// errTransport marks failures that happened below HTTP — candidates for an
// idempotent retry.
type errTransport struct{ err error }

func (e errTransport) Error() string { return e.err.Error() }
func (e errTransport) Unwrap() error { return e.err }

// do issues one HTTP round trip and returns the response body. Non-200
// responses become errors carrying the server's message. Transport-level
// failures are wrapped in errTransport for call's retry decision.
func (c *Client) do(ctx context.Context, method, path string, body []byte, stream io.Reader) ([]byte, error) {
	var rd io.Reader
	switch {
	case stream != nil:
		rd = stream
	case body != nil:
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(protoHeader, ProtoVersion)
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	c.rpcs.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The deadline expired (or the caller canceled): not a transport
			// flake, and retrying would double the latency budget.
			return nil, ctx.Err()
		}
		return nil, errTransport{err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errTransport{err}
	}
	if resp.StatusCode/100 != 2 {
		var e errResp
		if json.Unmarshal(out, &e) == nil && e.Error != "" {
			return nil, errors.New(e.Error)
		}
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return out, nil
}

// call runs do under a fresh per-attempt deadline, retrying bounded times
// on transport failures when idempotent. Every error is prefixed with the
// shard's address, so a coordinator failure names the host that caused it.
func (c *Client) call(path string, body []byte, timeout time.Duration, idempotent bool) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		out, err := c.do(ctx, http.MethodPost, path, body, nil)
		cancel()
		if err == nil {
			return out, nil
		}
		lastErr = err
		var te errTransport
		if !idempotent || !errors.As(err, &te) || attempt >= c.retry {
			break
		}
		c.retries.Add(1)
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
	return nil, fmt.Errorf("shard %s: %w", c.addr, lastErr)
}

// refreshStats fetches the server's static shape and current state.
func (c *Client) refreshStats() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.callT)
	defer cancel()
	out, err := c.do(ctx, http.MethodGet, "/shard/stats", nil, nil)
	if err != nil {
		return fmt.Errorf("shard %s: %w", c.addr, err)
	}
	var st statsResp
	if err := json.Unmarshal(out, &st); err != nil {
		return fmt.Errorf("shard %s: decoding stats: %w", c.addr, err)
	}
	if st.EpochOK {
		c.epoch, c.epochOK = time.Unix(0, st.EpochNS).UTC(), true
	}
	c.unit = time.Duration(st.TimeUnitNS)
	c.venues, c.levels = st.Venues, st.Levels
	c.adopt(st.State)
	return nil
}

// --- shard.Backend: shape and state (no round trips) ---

func (c *Client) NumVenues() int          { return c.venues }
func (c *Client) Levels() int             { return c.levels }
func (c *Client) TimeUnit() time.Duration { return c.unit }
func (c *Client) Epoch() (time.Time, bool) {
	return c.epoch, c.epochOK
}

func (c *Client) NumEntities() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.st.Entities)
}

func (c *Client) SnapshotGeneration() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Generation, c.st.GenOK
}

// --- shard.Backend: ingest ---

func (c *Client) AddVisits(visits []digitaltraces.VisitRecord) (int, error) {
	resp, err := c.ingest(visits)
	if err != nil {
		return 0, err
	}
	if int(resp.FailIndex) == len(visits) {
		// Every record stored, then the shard's fold failed: DB.AddVisits'
		// failed-fold shape, the full count with the fold's error.
		return int(resp.Stored), fmt.Errorf("shard %s: %s", c.addr, resp.ErrMsg)
	}
	if resp.FailIndex >= 0 {
		// Reassemble DB.AddVisits' partial-failure shape: "visit %d: inner".
		// Cluster.AddVisits unwraps exactly one layer to re-index into the
		// caller's slice, so the inner error must be the wrapped one.
		return int(resp.Stored), fmt.Errorf("visit %d: %w", resp.FailIndex, errors.New(resp.ErrMsg))
	}
	return int(resp.Stored), nil
}

func (c *Client) ingest(records []digitaltraces.VisitRecord) (ingestResp, error) {
	// Not idempotent: a lost response leaves the records stored, and a
	// replay would double them.
	out, err := c.call("/shard/ingest", encodeIngestReq(ingestReq{Records: records}), c.callT, false)
	if err != nil {
		return ingestResp{}, err
	}
	resp, err := decodeIngestResp(out)
	if err != nil {
		return ingestResp{}, fmt.Errorf("shard %s: decoding ingest response: %w", c.addr, err)
	}
	c.adopt(resp.State)
	return resp, nil
}

// --- shard.Backend: search ---

func (c *Client) Rank(req shard.RankRequest) (digitaltraces.Ranked, error) {
	c.pulls.Add(1)
	// Idempotent: the server keeps nothing, so a re-sent call asks again.
	out, err := c.call("/shard/rank", encodeRankReq(req), c.callT, true)
	if err != nil {
		return digitaltraces.Ranked{}, err
	}
	resp, err := decodeRankResp(out)
	if err != nil {
		return digitaltraces.Ranked{}, fmt.Errorf("shard %s: decoding rank response: %w", c.addr, err)
	}
	c.adopt(resp.State)
	return resp.Ranked, nil
}

func (c *Client) VisitsOf(entity string) ([]digitaltraces.Visit, error) {
	out, err := c.call("/shard/visitsof", encodeVisitsOfReq(visitsOfReq{Entity: entity}), c.callT, true)
	if err != nil {
		return nil, err
	}
	resp, err := decodeVisitsOfResp(out)
	if err != nil {
		return nil, fmt.Errorf("shard %s: decoding visitsof response: %w", c.addr, err)
	}
	c.adopt(resp.State)
	return resp.Visits, nil
}

// --- shard.Backend: maintenance ---

func (c *Client) BuildIndex() error {
	_, err := c.call("/shard/build", []byte{}, c.ctrlT, true)
	if err == nil {
		err = c.refreshStats() // the build moved the generation
	}
	return err
}

func (c *Client) IndexStats() digitaltraces.IndexStats {
	ctx, cancel := context.WithTimeout(context.Background(), c.callT)
	defer cancel()
	out, err := c.do(ctx, http.MethodGet, "/shard/stats", nil, nil)
	if err != nil {
		return digitaltraces.IndexStats{}
	}
	var st statsResp
	if json.Unmarshal(out, &st) != nil {
		return digitaltraces.IndexStats{}
	}
	c.adopt(st.State)
	return st.Index
}

func (c *Client) SaveIndex(w io.Writer) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.ctrlT)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/shard/index", nil)
	if err != nil {
		return 0, fmt.Errorf("shard %s: %w", c.addr, err)
	}
	req.Header.Set(protoHeader, ProtoVersion)
	c.rpcs.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("shard %s: %w", c.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		var e errResp
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return 0, fmt.Errorf("shard %s: %s", c.addr, e.Error)
		}
		return 0, fmt.Errorf("shard %s: HTTP %d", c.addr, resp.StatusCode)
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, fmt.Errorf("shard %s: streaming index: %w", c.addr, err)
	}
	return n, nil
}

// OpenIndexAt sends the image in r to the shard server, which opens it there
// (DB.OpenIndexAt) — the remote half of Cluster.OpenIndex.
func (c *Client) OpenIndexAt(r io.ReaderAt, size int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.ctrlT)
	defer cancel()
	if _, err := c.do(ctx, http.MethodPost, "/shard/index", nil, io.NewSectionReader(r, 0, size)); err != nil {
		return fmt.Errorf("shard %s: %w", c.addr, err)
	}
	return c.refreshStats()
}

// Ping round-trips to the shard server's health endpoint and refreshes the
// cached serving state — the coordinator /healthz readiness probe.
func (c *Client) Ping() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.callT)
	defer cancel()
	out, err := c.do(ctx, http.MethodGet, "/shard/healthz", nil, nil)
	if err != nil {
		return fmt.Errorf("shard %s: %w", c.addr, err)
	}
	var h healthResp
	if err := json.Unmarshal(out, &h); err != nil {
		return fmt.Errorf("shard %s: decoding health: %w", c.addr, err)
	}
	c.adopt(h.State)
	return nil
}

// Close releases the client's pooled connections. The shard server (and
// its DB) live on — Close severs this coordinator only.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
