package remote

// Client/server integration over loopback HTTP: end-to-end answer parity
// with the in-process engine, retry idempotence of re-sent positional pulls,
// named (never hanging) deadline errors, bounded transient retries, TTL
// stream expiry, partial-failure ingest parity, and coordinator health
// probing of a dead shard.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/internal/proptest"
)

// newShardServer starts one shard: a fresh suite DB behind a Server behind
// an httptest listener. Everything is torn down with the test.
func newShardServer(t *testing.T, cfg ServerConfig) (*digitaltraces.DB, *Server, *httptest.Server) {
	t.Helper()
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		db.Close()
	})
	return db, srv, hs
}

func dialTest(t *testing.T, url string, opts Options) *Client {
	t.Helper()
	c, err := Dial(url, opts)
	if err != nil {
		t.Fatalf("Dial(%s): %v", url, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sameMatches(t *testing.T, label string, got, want []digitaltraces.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v (must be bit-identical)", label, i, got[i], want[i])
		}
	}
}

// seedLog ingests a deterministic random log through the client and builds.
func seedLog(t *testing.T, c *Client, seed int64, entities int) []digitaltraces.VisitRecord {
	t.Helper()
	log := proptest.RandomLog(rand.New(rand.NewSource(seed)), entities, 24)
	if n, err := c.AddVisits(log); err != nil || n != len(log) {
		t.Fatalf("AddVisits: stored %d of %d, err %v", n, len(log), err)
	}
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestRemoteBackendEndToEnd drives every Backend method over the wire and
// compares against the server's own DB directly.
func TestRemoteBackendEndToEnd(t *testing.T) {
	db, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	seedLog(t, c, 7, 30)

	// Shape and state answered from the Dial-time cache, no round trips.
	if c.NumVenues() != db.NumVenues() || c.Levels() != db.Levels() || c.TimeUnit() != db.TimeUnit() {
		t.Fatalf("shape mismatch: client (%d venues, %d levels, %v) vs db (%d, %d, %v)",
			c.NumVenues(), c.Levels(), c.TimeUnit(), db.NumVenues(), db.Levels(), db.TimeUnit())
	}
	ce, cok := c.Epoch()
	de, dok := db.Epoch()
	if cok != dok || !ce.Equal(de) {
		t.Fatalf("epoch mismatch: client %v (%t) vs db %v (%t)", ce, cok, de, dok)
	}
	if c.NumEntities() != db.NumEntities() || c.PendingEntities() != db.PendingEntities() {
		t.Fatalf("state mismatch: client (%d entities, %d pending) vs db (%d, %d)",
			c.NumEntities(), c.PendingEntities(), db.NumEntities(), db.PendingEntities())
	}
	cg, cgok := c.SnapshotGeneration()
	dg, dgok := db.SnapshotGeneration()
	if cg != dg || cgok != dgok {
		t.Fatalf("generation mismatch: client %d (%t) vs db %d (%t)", cg, cgok, dg, dgok)
	}

	// VisitsOf round-trips timestamps and venues exactly.
	want, err := db.VisitsOf("e003")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VisitsOf("e003")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("VisitsOf: %d visits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Venue != want[i].Venue || !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
			t.Fatalf("VisitsOf visit %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if _, err := c.VisitsOf("nobody"); err == nil || !strings.Contains(err.Error(), "shard "+c.Addr()) {
		t.Fatalf("VisitsOf(nobody) should fail naming the shard, got %v", err)
	}

	// The remote stream and a local stream over the same DB emit identical
	// (matches, bound, live) sequences under the same pull schedule, the
	// open's fused first pull included.
	lVisits, lst, lb, err := shard.Local(db).OpenSearchEntity("e003", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	rVisits, rst, rb, err := c.OpenSearchEntity("e003", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if len(lVisits) != len(rVisits) {
		t.Fatalf("open returned %d visits remotely, %d locally", len(rVisits), len(lVisits))
	}
	if lst.Generation() != rst.Generation() {
		t.Fatalf("stream generations differ: remote %d, local %d", rst.Generation(), lst.Generation())
	}
	for round, want := range []int{1, 2, 4, 8, 16} {
		if round > 0 {
			var lerr, rerr error
			lb, lerr = lst.Pull(want, 0)
			rb, rerr = rst.Pull(want, 0)
			if lerr != nil || rerr != nil {
				t.Fatalf("round %d: pull errors local=%v remote=%v", round, lerr, rerr)
			}
		}
		sameMatches(t, fmt.Sprintf("round %d", round), rb.Matches, lb.Matches)
		if lb.Bound != rb.Bound || lb.Live != rb.Live {
			t.Fatalf("round %d: (bound, live) remote (%v, %t) vs local (%v, %t)", round, rb.Bound, rb.Live, lb.Bound, lb.Live)
		}
		if !lb.Live {
			break
		}
	}
	if lst.Checked() != rst.Checked() {
		t.Fatalf("checked: remote %d, local %d", rst.Checked(), lst.Checked())
	}
}

// TestPullResendIdempotent re-sends the same positional pull and requires a
// byte-identical response — the property that makes transport retries safe —
// for plain and floored pulls, the final pull of a stream included. A re-sent
// fused open answers with a fresh stream and the same first batch.
func TestPullResendIdempotent(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	seedLog(t, c, 8, 30)

	resend := func(path string, body []byte) []byte {
		t.Helper()
		first, err := c.call(path, body, c.callT, true)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		second, err := c.call(path, body, c.callT, true)
		if err != nil {
			t.Fatalf("re-sent %s: %v", path, err)
		}
		if string(first) != string(second) {
			t.Fatalf("re-sent %s returned different bytes:\n%x\n%x", path, first, second)
		}
		return first
	}

	// The fused open: everything but the stream handle repeats.
	open := encodeOpenReq(openReq{Entity: "e001", Want: 4})
	a, err := c.call("/shard/open", open, c.callT, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.call("/shard/open", open, c.callT, true)
	if err != nil {
		t.Fatal(err)
	}
	ra, errA := decodeOpenResp(a)
	rb, errB := decodeOpenResp(b)
	if errA != nil || errB != nil || ra.StreamID == rb.StreamID || !ra.First.Live {
		t.Fatalf("re-sent open: %+v (%v) and %+v (%v)", ra, errA, rb, errB)
	}
	id, id2 := ra.StreamID, rb.StreamID
	if rb.StreamID = id; !bytes.Equal(encodeOpenResp(ra), encodeOpenResp(rb)) {
		t.Fatalf("re-sent open answered differently:\n%+v\n%+v", ra, rb)
	}

	// Replay ranges both at and before the high-water mark (4, from the
	// open's first pull).
	for _, req := range []pullReq{
		{StreamID: id, Offset: 0, Want: 4},  // fully re-served range
		{StreamID: id, Offset: 2, Want: 2},  // interior range
		{StreamID: id, Offset: 4, Want: 8},  // extends past the high-water mark
		{StreamID: id, Offset: 4, Want: 8},  // ...and its exact replay
		{StreamID: id, Offset: 0, Want: 50}, // spans old and new, and drains the stream
	} {
		resend("/shard/pull", encodePullReq(req))
	}

	// Floored pulls on the second stream: one that stays live, then one
	// that ends the stream below its floor — re-served after the search is
	// released.
	lo, hi := rb.First.Matches[3].Degree/2, rb.First.Matches[1].Degree // [0] is e001 itself
	if lo == 0 {
		t.Fatal("test premise broken: e001 shares too little with anyone")
	}
	resp, err := decodePullResp(resend("/shard/pull", encodePullReq(pullReq{StreamID: id2, Offset: 4, Want: 1, Floor: lo})))
	if err != nil || len(resp.Matches) != 1 || resp.Matches[0].Degree < lo {
		t.Fatalf("pull at floor %v: %+v, %v — want one match at or above it", lo, resp, err)
	}
	resp, err = decodePullResp(resend("/shard/pull", encodePullReq(pullReq{StreamID: id2, Offset: 5, Want: 50, Floor: hi})))
	if err != nil || resp.Live || resp.Bound >= hi {
		t.Fatalf("pull at floor %v: %+v, %v — want the stream ended below it", hi, resp, err)
	}

	// An offset beyond anything emitted is a protocol error, not a hang.
	if _, err := c.call("/shard/pull", encodePullReq(pullReq{StreamID: id, Offset: 10_000, Want: 1}), c.callT, true); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("far-future offset should be rejected, got %v", err)
	}
}

// TestMalformedPullRejected: a pull whose want no response could carry is
// refused at decode time with a 400, and the stream and the server keep
// serving — within the call timeout — afterwards.
func TestMalformedPullRejected(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{CallTimeout: 5 * time.Second})
	seedLog(t, c, 12, 20)

	_, st, _, err := c.OpenSearchEntity("e001", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := st.(*remoteStream).id
	for _, want := range []uint64{math.MaxUint64, 1 << 62} {
		body := encodePullReq(pullReq{StreamID: id, Offset: 1, Want: want})
		resp, err := http.Post(hs.URL+"/shard/pull", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("want %d got HTTP %d, want 400", want, resp.StatusCode)
		}
	}
	if _, err := st.Pull(2, 0); err != nil {
		t.Fatalf("pull after the malformed ones: %v", err)
	}
	if _, _, _, err := c.OpenSearchEntity("e002", 1); err != nil {
		t.Fatalf("open after the malformed pulls: %v", err)
	}
}

// TestHealthzSlotEpoch: a pushed slot epoch is reported by /shard/healthz,
// so a coordinator's Ping learns it.
func TestHealthzSlotEpoch(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{}) // before the push: its stats read epoch 0
	pusher := dialTest(t, hs.URL, Options{})
	if err := pusher.PushSlotEpoch(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := c.SlotEpoch(); got != 7 {
		t.Fatalf("Ping learned slot epoch %d, want 7", got)
	}
}

// TestStreamsReleasedWithoutClose: a stream's release rides on the next
// request to its server, so across many queries the server holds at most one
// query's streams and no close request is ever sent.
func TestStreamsReleasedWithoutClose(t *testing.T) {
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db, ServerConfig{})
	defer srv.Close()
	inner := srv.Handler()
	var mu sync.Mutex
	paths := map[string]int{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()
	c := dialTest(t, hs.URL, Options{})
	cl, err := shard.NewCluster(shard.Config{Backends: []shard.Backend{c}})
	if err != nil {
		t.Fatal(err)
	}
	log := proptest.RandomLog(rand.New(rand.NewSource(17)), 30, 24)
	if _, err := cl.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := cl.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	health := func() healthResp {
		resp, err := http.Get(hs.URL + "/shard/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthResp
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for i := 0; i < 200; i++ {
		if _, _, err := cl.TopK(fmt.Sprintf("e%03d", i%30), 3); err != nil {
			t.Fatal(err)
		}
		if n := health().Streams; n > 1 {
			t.Fatalf("after query %d the server holds %d streams, want at most one query's (1)", i, n)
		}
	}
	if n := paths["/shard/close"]; n != 0 {
		t.Fatalf("%d close requests sent", n)
	}
}

// TestPullDeadlineNamed: a pull that outlives its deadline returns promptly
// with an error naming the shard — and is not retried (the latency budget is
// already spent).
func TestPullDeadlineNamed(t *testing.T) {
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db, ServerConfig{})
	defer srv.Close()
	inner := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/pull" {
			time.Sleep(2 * time.Second) // far beyond the client deadline
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := dialTest(t, hs.URL, Options{CallTimeout: 80 * time.Millisecond})
	seedLog(t, c, 9, 10)
	_, st, _, err := c.OpenSearchEntity("e001", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	start := time.Now()
	_, err = st.Pull(4, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline-expired pull returned no error")
	}
	if !strings.Contains(err.Error(), "shard "+c.Addr()) {
		t.Fatalf("deadline error does not name the shard: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-expired pull took %v — it retried or hung instead of failing fast", elapsed)
	}
	if r := c.Metrics().Retries; r != 0 {
		t.Fatalf("deadline expiry was retried %d times; deadlines must never retry", r)
	}
}

// TestTransientRetry: a connection killed mid-request is retried (bounded)
// for idempotent calls and the caller sees only the successful answer.
func TestTransientRetry(t *testing.T) {
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db, ServerConfig{})
	defer srv.Close()
	inner := srv.Handler()
	var drops atomic.Int32
	drops.Store(2) // kill the first two attempts
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/visitsof" && drops.Add(-1) >= 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // no response at all: a transport-level failure
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := dialTest(t, hs.URL, Options{Retries: 3})
	seedLog(t, c, 10, 10)

	want, err := db.VisitsOf("e001")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VisitsOf("e001")
	if err != nil {
		t.Fatalf("VisitsOf should survive transient connection kills: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("retried VisitsOf returned %d visits, want %d", len(got), len(want))
	}
	if r := c.Metrics().Retries; r < 2 {
		t.Fatalf("expected ≥ 2 transport retries, counted %d", r)
	}
}

// TestIngestNeverRetried: the same transient failure on ingest surfaces as
// an error instead of retrying — a replayed ingest would double-store.
func TestIngestNeverRetried(t *testing.T) {
	db, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db, ServerConfig{})
	defer srv.Close()
	inner := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard/ingest" {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := dialTest(t, hs.URL, Options{Retries: 3})
	_, err = c.AddVisits([]digitaltraces.VisitRecord{{
		Entity: "e", Venue: digitaltraces.VenueName(0),
		Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1),
	}})
	if err == nil {
		t.Fatal("ingest over a killed connection must error, not silently retry")
	}
	if !strings.Contains(err.Error(), "shard "+c.Addr()) {
		t.Fatalf("ingest failure does not name the shard: %v", err)
	}
	if r := c.Metrics().Retries; r != 0 {
		t.Fatalf("ingest was retried %d times; ingest is not idempotent", r)
	}
}

// TestStreamExpiry: a stream idle past the server TTL is swept, and a late
// pull gets a named not-found error rather than a hang or a silent restart.
func TestStreamExpiry(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{StreamTTL: 60 * time.Millisecond})
	c := dialTest(t, hs.URL, Options{})
	seedLog(t, c, 11, 10)

	_, st, _, err := c.OpenSearchEntity("e001", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	time.Sleep(300 * time.Millisecond) // several sweep ticks past the TTL
	_, err = st.Pull(4, 0)
	if err == nil {
		t.Fatal("pull on an expired stream returned no error")
	}
	if !strings.Contains(err.Error(), "not found") || !strings.Contains(err.Error(), "shard "+c.Addr()) {
		t.Fatalf("expired-stream error should be a named not-found, got: %v", err)
	}
}

// TestIngestPartialFailure: a mid-batch failure crosses the wire with the
// same "visit %d:" shape and stored count the in-process DB reports.
func TestIngestPartialFailure(t *testing.T) {
	db, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})

	recs := []digitaltraces.VisitRecord{
		{Entity: "a", Venue: digitaltraces.VenueName(0), Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1)},
		{Entity: "b", Venue: "no-such-venue", Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1)},
		{Entity: "c", Venue: digitaltraces.VenueName(1), Start: digitaltraces.TimeAt(0), End: digitaltraces.TimeAt(1)},
	}
	// Reference: the same batch against a plain DB.
	ref, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	wantN, wantErr := ref.AddVisits(recs)
	if wantErr == nil {
		t.Fatal("reference DB accepted an unknown venue; test premise broken")
	}

	gotN, gotErr := c.AddVisits(recs)
	if gotN != wantN {
		t.Fatalf("stored %d remotely, %d locally", gotN, wantN)
	}
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("partial-failure error mismatch:\nremote: %v\nlocal:  %v", gotErr, wantErr)
	}
	if db.NumEntities() != ref.NumEntities() {
		t.Fatalf("server stored %d entities, reference %d", db.NumEntities(), ref.NumEntities())
	}
}

// TestProtoVersionRejected: a mismatched protocol version — the previous
// one, which had no fused open, included — is refused before any payload is
// decoded.
func TestProtoVersionRejected(t *testing.T) {
	if ProtoVersion != "3" {
		t.Fatalf("ProtoVersion = %q, want 3", ProtoVersion)
	}
	_, _, hs := newShardServer(t, ServerConfig{})
	for _, v := range []string{"2", "99"} {
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/shard/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(protoHeader, v)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("version %s got HTTP %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestShardTopKRouteGone: the full-local-top-k op is not part of the shard
// protocol; the pull-based search (open/pull) is the only query path.
func TestShardTopKRouteGone(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	resp, err := http.Post(hs.URL+"/shard/topk", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /shard/topk got HTTP %d, want 404", resp.StatusCode)
	}
}

// TestClusterHealthNamesDeadShard: the coordinator's readiness probe marks a
// killed shard unhealthy and names its address; queries against the degraded
// cluster fail naming the same address.
func TestClusterHealthNamesDeadShard(t *testing.T) {
	_, _, hs0 := newShardServer(t, ServerConfig{})
	_, _, hs1 := newShardServer(t, ServerConfig{})
	c0 := dialTest(t, hs0.URL, Options{CallTimeout: time.Second, Retries: -1})
	c1 := dialTest(t, hs1.URL, Options{CallTimeout: time.Second, Retries: -1})

	cl, err := shard.NewCluster(shard.Config{Backends: []shard.Backend{c0, c1}})
	if err != nil {
		t.Fatal(err)
	}
	log := proptest.RandomLog(rand.New(rand.NewSource(13)), 20, 12)
	if _, err := cl.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := cl.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for i, h := range cl.Health() {
		if !h.OK || h.Err != "" {
			t.Fatalf("healthy cluster reports shard %d unhealthy: %+v", i, h)
		}
		if h.Addr == "" {
			t.Fatalf("remote shard %d health row has no address", i)
		}
	}

	hs1.Close() // kill shard 1
	dead := c1.Addr()
	var sawDead bool
	for _, h := range cl.Health() {
		if h.Addr == dead {
			sawDead = true
			if h.OK || !strings.Contains(h.Err, dead) {
				t.Fatalf("dead shard %s not reported by name: %+v", dead, h)
			}
		} else if !h.OK {
			t.Fatalf("live shard %s reported unhealthy: %+v", h.Addr, h)
		}
	}
	if !sawDead {
		t.Fatalf("no health row for dead shard %s", dead)
	}

	// A query that needs the dead shard names it too.
	if _, _, err := cl.TopK("e000", 3); err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("query against dead shard should name %s, got: %v", dead, err)
	}
}

// TestRemoteShardTraceAddr: the coordinator's per-shard trace rows carry the
// remote shard's address.
func TestRemoteShardTraceAddr(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	cl, err := shard.NewCluster(shard.Config{Backends: []shard.Backend{c}, TraceSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	log := proptest.RandomLog(rand.New(rand.NewSource(14)), 20, 12)
	if _, err := cl.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := cl.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.TopK("e000", 3); err != nil {
		t.Fatal(err)
	}
	traces := cl.Tracer().Snapshot()
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var sawAddr bool
	for _, qt := range traces {
		for _, st := range qt.Shards {
			if st.Addr == c.Addr() {
				sawAddr = true
			}
		}
	}
	if !sawAddr {
		t.Fatalf("no shard trace row carries the remote address %s", c.Addr())
	}
}

// TestRemoteClusterCache: the generation-vector query cache stays sound when
// the shards are remote — repeats hit bit-identically, ingest invalidates.
func TestRemoteClusterCache(t *testing.T) {
	_, _, hs0 := newShardServer(t, ServerConfig{})
	_, _, hs1 := newShardServer(t, ServerConfig{})
	c0 := dialTest(t, hs0.URL, Options{})
	c1 := dialTest(t, hs1.URL, Options{})
	cl, err := shard.NewCluster(shard.Config{Backends: []shard.Backend{c0, c1}, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	log := proptest.RandomLog(rand.New(rand.NewSource(15)), 30, 24)
	if _, err := cl.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := cl.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	first, qs1, err := cl.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, qs2, err := cl.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !qs2.CacheHit {
		t.Fatal("repeat query missed the cache despite unchanged remote generations")
	}
	sameMatches(t, "cached vs fresh", second, first)

	// Ingest through the coordinator moves the remote serving state the
	// client caches, so the version vector changes and the entry is dead.
	if _, err := cl.AddVisits([]digitaltraces.VisitRecord{{
		Entity: "e000", Venue: digitaltraces.VenueName(0),
		Start: digitaltraces.TimeAt(1), End: digitaltraces.TimeAt(2),
	}}); err != nil {
		t.Fatal(err)
	}
	after, qs3, err := cl.TopK("e000", 5)
	if err != nil {
		t.Fatal(err)
	}
	if qs3.CacheHit {
		t.Fatal("query after remote ingest served a stale cache hit")
	}
	_ = after
}

// TestRemoteIndexSaveLoad: an index snapshot streamed off one shard server
// restores into another hosting the same log, and answers are identical —
// also when the image sent carries its sequence section, which the receiving
// server stops reading before (a file saved for a mapped boot, loaded by name
// over the wire).
func TestRemoteIndexSaveLoad(t *testing.T) {
	dbA, _, hsA := newShardServer(t, ServerConfig{})
	_, _, hsB := newShardServer(t, ServerConfig{})
	_, _, hsC := newShardServer(t, ServerConfig{})
	ca := dialTest(t, hsA.URL, Options{})
	cb := dialTest(t, hsB.URL, Options{})
	cc := dialTest(t, hsC.URL, Options{})

	log := seedLog(t, ca, 16, 30)
	for _, c := range []*Client{cb, cc} {
		if n, err := c.AddVisits(log); err != nil || n != len(log) {
			t.Fatalf("replaying log: %d, %v", n, err)
		}
	}

	var buf strings.Builder
	if _, err := ca.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if err := cb.LoadIndex(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	var withSeqs strings.Builder
	if _, err := dbA.SaveMappedIndex(&withSeqs); err != nil {
		t.Fatal(err)
	}
	if withSeqs.Len() <= buf.Len() {
		t.Fatalf("image with sequences is %d bytes, without %d", withSeqs.Len(), buf.Len())
	}
	if err := cc.LoadIndex(strings.NewReader(withSeqs.String())); err != nil {
		t.Fatalf("loading an image that carries sequences over the wire: %v", err)
	}

	visits, err := ca.VisitsOf("e001")
	if err != nil {
		t.Fatal(err)
	}
	top := func(c *Client) []digitaltraces.Match {
		st, b, err := c.OpenSearch(visits, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return b.Matches
	}
	sameMatches(t, "loaded index answers", top(cb), top(ca))
	sameMatches(t, "index loaded from an image with sequences answers", top(cc), top(ca))
}
