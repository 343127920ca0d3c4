package remote

// Client/server integration over loopback HTTP: end-to-end answer parity
// with the in-process engine, refusal of malformed rank calls, named (never
// hanging) deadline errors, bounded transient retries, partial-failure
// ingest parity, and coordinator health probing of a dead shard.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// TestRemoteRefreshPastBuiltData: visits far past everything a remote shard
// was built over fold in incrementally before /shard/ingest answers —
// generation +1, the build time kept, the fold's own duration reported — and
// the shard
// then answers over the wire like a DB built from scratch over the same log.
func TestRemoteRefreshPastBuiltData(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	log := seedLog(t, c, 11, 30)
	before := c.IndexStats()
	far := digitaltraces.TimeAt(24 + 500)
	late := []digitaltraces.VisitRecord{
		{Entity: "traveler", Venue: digitaltraces.VenueName(0), Start: far, End: far.Add(2 * time.Hour)},
		{Entity: log[0].Entity, Venue: digitaltraces.VenueName(0), Start: far.Add(time.Hour), End: far.Add(3 * time.Hour)},
	}
	if n, err := c.AddVisits(late); err != nil || n != len(late) {
		t.Fatalf("AddVisits: stored %d of %d, err %v", n, len(late), err)
	}
	after := c.IndexStats()
	if after.Generation != before.Generation+1 || after.BuildTime != before.BuildTime || after.LastRefreshDuration <= 0 {
		t.Fatalf("generation %d → %d, build time %v → %v, last refresh %v: want one incremental refresh",
			before.Generation, after.Generation, before.BuildTime, after.BuildTime, after.LastRefreshDuration)
	}
	twin, err := proptest.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if _, err := twin.AddVisits(append(append([]digitaltraces.VisitRecord{}, log...), late...)); err != nil {
		t.Fatal(err)
	}
	if err := twin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"traveler", log[0].Entity, log[len(log)-1].Entity} {
		got, err := c.Rank(shard.RankRequest{Entity: q, Want: 5, Owned: shard.DefaultSlotMap(1).Owned(0)})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := twin.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, q, got.Matches, want)
	}
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
	if c.NumEntities() != db.NumEntities() {
		t.Fatalf("state mismatch: client %d entities vs db %d", c.NumEntities(), db.NumEntities())
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

	// A remote rank call and the in-process one over the same DB answer
	// identically — matches, visits, bound, cap, work and generation — by
	// entity and by example, under floors, masks and ties.
	visits, err := db.VisitsOf("e003")
	if err != nil {
		t.Fatal(err)
	}
	var odd shard.SlotMask
	for s := 1; s < shard.NumSlots; s += 2 {
		odd[s/64] |= 1 << (s % 64)
	}
	all := shard.DefaultSlotMap(1).Owned(0)
	for _, req := range []shard.RankRequest{
		{Entity: "e003", Want: 1, Owned: all},
		{Entity: "e003", Want: 8, Owned: all},
		{Entity: "e003", Want: 4, Owned: odd, Ties: true},
		{Visits: visits, Want: 16, Floor: 0.05, Owned: all},
		{Visits: visits, Want: 2, Floor: 0.01, Owned: odd, Ties: true},
		{Visits: visits, Want: 64, Owned: all},
	} {
		want, err := shard.Local(db).Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		sameRanked(t, fmt.Sprintf("Rank(%+v)", req), got, want)
	}
}

// TestMalformedRankRejected: a rank call whose want no response could
// carry, whose floor is outside [0, 1] or NaN, or whose slot mask has the
// wrong length is refused at decode time with a 400, and the server keeps
// serving — within the call timeout — afterwards.
func TestMalformedRankRejected(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{CallTimeout: 5 * time.Second})
	seedLog(t, c, 12, 20)

	// body encodes a rank request field by field, so that every field can
	// be out of range.
	body := func(want uint64, floor float64, maskLen int) []byte {
		b := appendVisits(appendString([]byte{tagRankReq}, "e001"), nil)
		b = appendF64(binary.AppendUvarint(b, want), floor)
		b = append(binary.AppendUvarint(b, uint64(maskLen)), make([]byte, maskLen)...)
		return appendBool(b, false)
	}
	if _, err := decodeRankReq(body(4, 0.5, maskBytes)); err != nil {
		t.Fatalf("the well-formed request is refused: %v", err)
	}
	for _, bad := range [][]byte{
		body(math.MaxUint64, 0, maskBytes),
		body(maxWireList+1, 0, maskBytes),
		body(0, 0, maskBytes),
		body(4, -0.5, maskBytes),
		body(4, 1.5, maskBytes),
		body(4, math.NaN(), maskBytes),
		body(4, 0, maskBytes-1),
		body(4, 0, maskBytes+8),
	} {
		resp, err := http.Post(hs.URL+"/shard/rank", "application/octet-stream", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%x got HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
	if _, err := c.Rank(shard.RankRequest{Entity: "e002", Want: 2, Owned: shard.DefaultSlotMap(1).Owned(0)}); err != nil {
		t.Fatalf("rank after the malformed ones: %v", err)
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

// TestPullDeadlineNamed: a rank call that outlives its deadline returns
// promptly with an error naming the shard — and is not retried (the latency
// budget is already spent).
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
		if r.URL.Path == "/shard/rank" {
			time.Sleep(2 * time.Second) // far beyond the client deadline
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := dialTest(t, hs.URL, Options{CallTimeout: 80 * time.Millisecond})
	seedLog(t, c, 9, 10)

	start := time.Now()
	_, err = c.Rank(shard.RankRequest{Entity: "e001", Want: 4})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("deadline-expired rank call returned no error")
	}
	if !strings.Contains(err.Error(), "shard "+c.Addr()) {
		t.Fatalf("deadline error does not name the shard: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-expired rank call took %v — it retried or hung instead of failing fast", elapsed)
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
// one, which searched through open/pull streams, and older ones included —
// is refused before any payload is decoded.
func TestProtoVersionRejected(t *testing.T) {
	if ProtoVersion != "5" {
		t.Fatalf("ProtoVersion = %q, want 5", ProtoVersion)
	}
	_, _, hs := newShardServer(t, ServerConfig{})
	for _, v := range []string{"2", "3", "4", "99"} {
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

// TestShardTopKRouteGone: neither the full-local-top-k op nor the retired
// stream routes (open/pull) are part of the shard protocol; the one-call rank
// is the only query path.
func TestShardTopKRouteGone(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	for _, path := range []string{"/shard/topk", "/shard/open", "/shard/pull"} {
		resp, err := http.Post(hs.URL+path, "application/octet-stream", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s got HTTP %d, want 404", path, resp.StatusCode)
		}
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

// TestRemoteIndexSaveLoad: a 4-shard cluster of loopback shard servers
// ingests, builds and saves its envelope; a new coordinator over 4 fresh
// shard servers opens the file with no re-ingest — each section sent to its
// server and opened there — and answers bit-identically. A 3-shard cluster
// refuses the file, naming re-ingest, with its slot map and epoch unchanged.
func TestRemoteIndexSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	log := proptest.RandomLog(rng, 40, 24)
	src, _ := remoteClusterClients(t, 4, shard.Config{})
	if _, err := src.AddVisits(log); err != nil {
		t.Fatal(err)
	}
	if err := src.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.SaveIndex(f); err != nil {
		t.Fatalf("remote cluster SaveIndex: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	opened, _ := remoteClusterClients(t, 4, shard.Config{})
	t.Cleanup(func() { opened.Close() })
	if err := opened.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex on fresh shard servers: %v", err)
	}
	if got, want := opened.NumEntities(), src.NumEntities(); got != want {
		t.Fatalf("opened cluster holds %d entities, want %d", got, want)
	}
	for _, q := range proptest.SampleQueries(rng, 40) {
		for _, k := range []int{1, 5, 45} {
			want, _, err := src.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := opened.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, fmt.Sprintf("opened TopK(%s,%d)", q, k), got, want)
		}
	}

	three, _ := remoteClusterClients(t, 3, shard.Config{})
	epoch, assign := three.SlotEpoch(), three.SlotAssignment()
	if err := three.OpenIndex(path); err == nil || !strings.Contains(err.Error(), "re-ingest") {
		t.Fatalf("3-shard open of a 4-shard envelope: want a refusal naming re-ingest, got %v", err)
	}
	if three.SlotEpoch() != epoch || !reflect.DeepEqual(three.SlotAssignment(), assign) {
		t.Errorf("the refused open moved the slot map: epoch %d → %d", epoch, three.SlotEpoch())
	}
}

// TestRemoteSaveFailureIsAnError: a shard server whose SaveIndex fails — here
// an empty one, with no visits to index — answers with an error status, and
// the client returns that error instead of a short image and no error.
func TestRemoteSaveFailureIsAnError(t *testing.T) {
	_, _, hs := newShardServer(t, ServerConfig{})
	c := dialTest(t, hs.URL, Options{})
	var buf bytes.Buffer
	n, err := c.SaveIndex(&buf)
	if err == nil || !strings.Contains(err.Error(), "no visits to index") {
		t.Fatalf("SaveIndex on an empty shard server: n=%d err=%v, want the server's error", n, err)
	}
	if n != 0 || buf.Len() != 0 {
		t.Errorf("a failed save wrote %d bytes (reported %d)", buf.Len(), n)
	}
}
