package remote

// Client/server integration over loopback HTTP: end-to-end answer parity
// with the in-process engine, retry idempotence of re-sent positional pulls,
// named (never hanging) deadline errors, bounded transient retries, TTL
// stream expiry, partial-failure ingest parity, and coordinator health
// probing of a dead shard.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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
	// (matches, bound, live) sequences under the same pull schedule.
	lVisits, lst, err := shard.Local(db).OpenSearchEntity("e003")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	rVisits, rst, err := c.OpenSearchEntity("e003")
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
		lm, lb, llive, lerr := lst.Pull(want)
		rm, rb, rlive, rerr := rst.Pull(want)
		if lerr != nil || rerr != nil {
			t.Fatalf("round %d: pull errors local=%v remote=%v", round, lerr, rerr)
		}
		sameMatches(t, fmt.Sprintf("round %d", round), rm, lm)
		if lb != rb || llive != rlive {
			t.Fatalf("round %d: (bound, live) remote (%v, %t) vs local (%v, %t)", round, rb, rlive, lb, llive)
		}
		if !llive {
			break
		}
	}
	if lst.Checked() != rst.Checked() {
		t.Fatalf("checked: remote %d, local %d", rst.Checked(), lst.Checked())
	}
}

// TestPullResendIdempotent re-sends the same positional pull and requires a
// byte-identical response — the property that makes transport retries safe.
func TestPullResendIdempotent(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	seedLog(t, c, 8, 30)

	_, st, err := c.OpenSearchEntity("e001")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id := st.(*remoteStream).id

	// Advance the stream a little first, then replay ranges both at and
	// before the high-water mark.
	if _, _, _, err := st.Pull(4); err != nil {
		t.Fatal(err)
	}
	for _, req := range []pullReq{
		{StreamID: id, Offset: 0, Want: 4},  // fully re-served range
		{StreamID: id, Offset: 2, Want: 2},  // interior range
		{StreamID: id, Offset: 4, Want: 8},  // extends past the high-water mark
		{StreamID: id, Offset: 4, Want: 8},  // ...and its exact replay
		{StreamID: id, Offset: 0, Want: 50}, // spans old and new
	} {
		first, err := c.call("/shard/pull", encodePullReq(req), c.callT, true)
		if err != nil {
			t.Fatalf("pull %+v: %v", req, err)
		}
		second, err := c.call("/shard/pull", encodePullReq(req), c.callT, true)
		if err != nil {
			t.Fatalf("re-sent pull %+v: %v", req, err)
		}
		if string(first) != string(second) {
			t.Fatalf("re-sent pull %+v returned different bytes:\n%x\n%x", req, first, second)
		}
	}

	// An offset beyond anything emitted is a protocol error, not a hang.
	if _, err := c.call("/shard/pull", encodePullReq(pullReq{StreamID: id, Offset: 10_000, Want: 1}), c.callT, true); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("far-future offset should be rejected, got %v", err)
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
	_, st, err := c.OpenSearchEntity("e001")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	start := time.Now()
	_, _, _, err = st.Pull(4)
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

	_, st, err := c.OpenSearchEntity("e001")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	time.Sleep(300 * time.Millisecond) // several sweep ticks past the TTL
	_, _, _, err = st.Pull(4)
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

// TestProtoVersionRejected: a mismatched protocol version is refused before
// any payload is decoded.
func TestProtoVersionRejected(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/shard/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(protoHeader, "99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version 99 got HTTP %d, want 400", resp.StatusCode)
	}
}

// TestShardTopKRouteGone: the full-local-top-k op is not part of the shard
// protocol; the pull-based search (open/pull/close) is the only query path.
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
		st, err := c.OpenSearch(visits)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ms, _, _, err := st.Pull(8)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	sameMatches(t, "loaded index answers", top(cb), top(ca))
	sameMatches(t, "index loaded from an image with sequences answers", top(cc), top(ca))
}
