package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

func newTestServer(t *testing.T) (*digitaltraces.DB, *httptest.Server) {
	t.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3},
		digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, WithMaxK(50), WithMaxBatch(20)))
	t.Cleanup(ts.Close)
	return db, ts
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
}

func postJSON(t *testing.T, url string, req, dst any) (int, string) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && dst != nil {
		if err := json.Unmarshal(body, dst); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode, string(body)
}

// TestTopKOverHTTP: GET and POST answers are exactly the library's answers.
func TestTopKOverHTTP(t *testing.T) {
	db, ts := newTestServer(t)
	want, qs, err := db.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}

	var got TopKResponse
	getJSON(t, ts.URL+"/topk?entity=entity-3&k=5", &got)
	requireMatches(t, got.Matches, want)
	if got.Entity != "entity-3" || got.K != 5 {
		t.Errorf("echo fields wrong: %+v", got)
	}
	if got.Stats.Checked < len(want) || got.Stats.Pruned < 0 {
		t.Errorf("stats missing: %+v", got.Stats)
	}
	if got.Stats.Checked != qs.Checked || got.Stats.ZeroSkipped != qs.ZeroSkipped || got.Stats.BoundSkipped != qs.BoundSkipped {
		t.Errorf("reply counters %+v differ from the library's %+v", got.Stats, qs)
	}

	var posted TopKResponse
	if code, body := postJSON(t, ts.URL+"/topk", TopKRequest{Entity: "entity-3", K: 5}, &posted); code != http.StatusOK {
		t.Fatalf("POST /topk: %d: %s", code, body)
	}
	requireMatches(t, posted.Matches, want)
}

// TestBatchOverHTTP: the batch endpoint equals per-entity library answers.
func TestBatchOverHTTP(t *testing.T) {
	db, ts := newTestServer(t)
	names := []string{"entity-0", "entity-1", "entity-2", "entity-7"}
	var got BatchResponse
	if code, body := postJSON(t, ts.URL+"/topk/batch", BatchRequest{Entities: names, K: 4, Workers: 2}, &got); code != http.StatusOK {
		t.Fatalf("POST /topk/batch: %d: %s", code, body)
	}
	if len(got.Results) != len(names) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(names))
	}
	for _, name := range names {
		want, _, err := db.TopK(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		requireMatches(t, got.Results[name], want)
	}
	if got.Stats.Checked == 0 {
		t.Errorf("aggregate stats empty: %+v", got.Stats)
	}
}

// TestVisitIngestOverHTTP: ingested visits become queryable after refresh.
func TestVisitIngestOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	epoch := time.Unix(0, 0).UTC()
	visits := []Visit{
		{Entity: "newcomer", Venue: "venue-0", Start: epoch.Add(1 * time.Hour), End: epoch.Add(5 * time.Hour)},
		{Entity: "newcomer", Venue: "venue-1", Start: epoch.Add(6 * time.Hour), End: epoch.Add(8 * time.Hour)},
	}
	var ing VisitsResponse
	if code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits, Refresh: true}, &ing); code != http.StatusOK {
		t.Fatalf("POST /visits: %d: %s", code, body)
	}
	if ing.Added != 2 || !ing.Refreshed {
		t.Fatalf("ingest reply = %+v", ing)
	}
	var got TopKResponse
	getJSON(t, ts.URL+"/topk?entity=newcomer&k=3", &got)
	if len(got.Matches) != 3 {
		t.Fatalf("newcomer not queryable: %+v", got)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Entities != 41 || st.Index.Entities != 41 {
		t.Errorf("stats after ingest: %+v", st)
	}
	if st.Server.VisitsIngested != 2 || st.Server.Queries == 0 {
		t.Errorf("server counters: %+v", st.Server)
	}
	// The refresh-on-ingest swapped a second snapshot in; /stats reports the
	// generation counter, the swap timestamp, and the drained dirty set.
	if st.Index.Generation < 2 {
		t.Errorf("generation = %d after build+refresh, want ≥ 2", st.Index.Generation)
	}
	if ts0, err := time.Parse(time.RFC3339Nano, st.Index.LastSwap); err != nil || ts0.IsZero() {
		t.Errorf("last_swap %q unparseable: %v", st.Index.LastSwap, err)
	}
	if st.Index.DirtyCount != 0 {
		t.Errorf("dirty_count = %d after refresh, want 0", st.Index.DirtyCount)
	}

	// Ingest without refresh leaves the dirt visible until the next fold.
	if code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{
		{Entity: "straggler", Venue: "venue-2", Start: epoch.Add(2 * time.Hour), End: epoch.Add(3 * time.Hour)},
	}}, nil); code != http.StatusOK {
		t.Fatalf("POST /visits without refresh: %d: %s", code, body)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.DirtyCount != 1 {
		t.Errorf("dirty_count = %d after unfolded ingest, want 1", st.Index.DirtyCount)
	}
}

// TestHTTPErrors covers the rejection paths.
func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		do   func() (int, string)
		want int
	}{
		{"unknown entity", func() (int, string) {
			resp, err := http.Get(ts.URL + "/topk?entity=ghost")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b)
		}, http.StatusBadRequest},
		{"bad k", func() (int, string) {
			resp, err := http.Get(ts.URL + "/topk?entity=entity-0&k=9999")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b)
		}, http.StatusBadRequest},
		{"batch needs POST", func() (int, string) {
			resp, err := http.Get(ts.URL + "/topk/batch")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp.StatusCode, ""
		}, http.StatusMethodNotAllowed},
		{"oversized batch", func() (int, string) {
			big := make([]string, 21)
			for i := range big {
				big[i] = fmt.Sprintf("entity-%d", i)
			}
			return postJSON(t, ts.URL+"/topk/batch", BatchRequest{Entities: big, K: 3}, nil)
		}, http.StatusBadRequest},
		{"unknown venue", func() (int, string) {
			return postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{{
				Entity: "x", Venue: "atlantis",
				Start: time.Unix(3600, 0), End: time.Unix(7200, 0),
			}}}, nil)
		}, http.StatusBadRequest},
		{"unknown field", func() (int, string) {
			return postJSON(t, ts.URL+"/topk", map[string]any{"entty": "entity-0"}, nil)
		}, http.StatusBadRequest},
		{"malformed batch body", func() (int, string) {
			resp, err := http.Post(ts.URL+"/topk/batch", "application/json", strings.NewReader(`{"entities":["entity-0"`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b)
		}, http.StatusBadRequest},
		{"batch k over cap", func() (int, string) {
			return postJSON(t, ts.URL+"/topk/batch", BatchRequest{Entities: []string{"entity-0"}, K: 51}, nil)
		}, http.StatusBadRequest},
		{"batch unknown entity", func() (int, string) {
			return postJSON(t, ts.URL+"/topk/batch", BatchRequest{Entities: []string{"entity-0", "ghost"}, K: 3}, nil)
		}, http.StatusBadRequest},
		{"visits empty body", func() (int, string) {
			return postJSON(t, ts.URL+"/visits", VisitsRequest{}, nil)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := tc.do()
		if code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, body, tc.want)
		}
		if body != "" {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Errorf("%s: error body %q not {\"error\":...}", tc.name, body)
			}
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Server.Errors < int64(len(cases)) {
		t.Errorf("error counter = %d, want ≥ %d", st.Server.Errors, len(cases))
	}
}

// TestConcurrentHTTP drives mixed queries and ingest through the full HTTP
// stack from many goroutines (run with -race).
func TestConcurrentHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 25; i++ {
				if g == 0 && i%5 == 0 { // one writer lane
					code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{{
						Entity: fmt.Sprintf("w-%d", i), Venue: "venue-2",
						Start: time.Unix(3600, 0).UTC(), End: time.Unix(2*3600, 0).UTC(),
					}}, Refresh: true}, nil)
					if code != http.StatusOK {
						done <- fmt.Errorf("ingest: %d: %s", code, body)
						return
					}
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/topk?entity=entity-%d&k=3", ts.URL, (g*7+i)%40))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					done <- fmt.Errorf("topk status %d", resp.StatusCode)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedServer serves a shard.Cluster through the same handler: every
// endpoint answers bit-identically to the single-DB server, and /stats adds
// the per-shard breakdown.
func TestShardedServer(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3},
		digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.Partition(db, shard.Config{
		Shards: 4,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 4, digitaltraces.WithHashFunctions(32))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cluster, WithMaxK(50)))
	t.Cleanup(ts.Close)

	for _, q := range []string{"entity-0", "entity-13", "entity-39"} {
		want, _, err := db.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got TopKResponse
		getJSON(t, fmt.Sprintf("%s/topk?entity=%s&k=5", ts.URL, q), &got)
		requireMatches(t, got.Matches, want)
	}

	// Ingest through the cluster server routes to the owning shard and is
	// immediately queryable after refresh.
	code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{{
		Entity: "newcomer", Venue: "venue-1",
		Start: time.Unix(3600, 0).UTC(), End: time.Unix(4*3600, 0).UTC(),
	}}, Refresh: true}, nil)
	if code != http.StatusOK {
		t.Fatalf("cluster ingest: %d: %s", code, body)
	}
	var got TopKResponse
	getJSON(t, ts.URL+"/topk?entity=newcomer&k=3", &got)
	if len(got.Matches) != 3 {
		t.Fatalf("newcomer not queryable through cluster: %+v", got)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Entities != 41 || st.Index.Entities != 41 {
		t.Errorf("cluster totals: %+v", st)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("/stats has %d shards, want 4", len(st.Shards))
	}
	sum := 0
	var genSum uint64
	for i, s := range st.Shards {
		if s.Shard != i || s.Entities == 0 {
			t.Errorf("shard stat %d = %+v", i, s)
		}
		if s.Generation == 0 || s.LastSwap == "" {
			t.Errorf("shard %d missing snapshot provenance: %+v", i, s)
		}
		sum += s.Entities
		genSum += s.Generation
	}
	if sum != 41 {
		t.Errorf("per-shard entities sum to %d, want 41", sum)
	}
	if st.Index.Generation != genSum {
		t.Errorf("cluster generation %d != shard sum %d", st.Index.Generation, genSum)
	}
}

func requireMatches(t *testing.T, got []Match, want []digitaltraces.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Entity != want[i].Entity || got[i].Degree != want[i].Degree {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// fnvOwner mirrors the shard router's FNV-1a placement so the test can pick
// entities that land on distinct shards without reaching into the package.
func fnvOwner(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// TestShardedIngestPartialFailureReportsCount: when a sharded ingest fails
// mid-batch, records routed to other shards after the failing one are still
// stored — and the /visits response (the error response!) must report the
// engine's authoritative count, not the request length.
func TestShardedIngestPartialFailureReportsCount(t *testing.T) {
	cluster, err := shard.NewCluster(shard.Config{
		Shards: 2,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(16))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two entities on different shards, so the post-failure record routes
	// around the failing shard.
	var a, b string
	for i := 0; b == "" && i < 64; i++ {
		name := fmt.Sprintf("probe-%d", i)
		switch {
		case a == "" && fnvOwner(name, 2) == 0:
			a = name
		case a != "" && fnvOwner(name, 2) == 1:
			b = name
		}
	}
	if a == "" || b == "" {
		t.Fatal("could not find entities on distinct shards")
	}
	ts := httptest.NewServer(New(cluster))
	t.Cleanup(ts.Close)

	epoch := time.Unix(0, 0).UTC()
	visits := []Visit{
		{Entity: a, Venue: "venue-0", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
		{Entity: a, Venue: "atlantis", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
		{Entity: b, Venue: "venue-1", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
	}
	code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("partial-failure ingest: status %d (%s)", code, body)
	}
	var resp VisitsResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	// Records 0 (shard 0) and 2 (shard 1) landed; record 1 failed.
	if resp.Added != 2 {
		t.Errorf("error response added = %d, want the engine's count 2 (body %s)", resp.Added, body)
	}
	if !strings.Contains(resp.Error, "visit 1") {
		t.Errorf("error %q does not name the failing record", resp.Error)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Server.VisitsIngested != 2 {
		t.Errorf("visits_ingested = %d, want 2", st.Server.VisitsIngested)
	}
}

// TestSingleDBIngestFailureReportsCount: same contract on a single DB —
// the prefix before the failing record is kept and reported.
func TestSingleDBIngestFailureReportsCount(t *testing.T) {
	_, ts := newTestServer(t)
	epoch := time.Unix(0, 0).UTC()
	visits := []Visit{
		{Entity: "x", Venue: "venue-0", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
		{Entity: "x", Venue: "atlantis", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
		{Entity: "x", Venue: "venue-1", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
	}
	code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d (%s)", code, body)
	}
	var resp VisitsResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if resp.Added != 1 || resp.Error == "" {
		t.Errorf("error response = %+v, want added 1 and an error", resp)
	}
}

// TestSaveIndexEndpoint: POST /index/save persists a snapshot a fresh DB
// warm-restarts from with identical answers.
func TestSaveIndexEndpoint(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 30, Days: 3},
		digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	ts := httptest.NewServer(New(db, WithIndexPath(path)))
	t.Cleanup(ts.Close)

	var resp SaveIndexResponse
	if code, body := postJSON(t, ts.URL+"/index/save", struct{}{}, &resp); code != http.StatusOK {
		t.Fatalf("POST /index/save: %d: %s", code, body)
	}
	if resp.Path != path || resp.Bytes <= 0 {
		t.Fatalf("save response = %+v", resp)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != resp.Bytes {
		t.Fatalf("file is %d bytes, response says %d", fi.Size(), resp.Bytes)
	}

	// A restarted engine loads it and answers identically.
	fresh, err := digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AddVisits(db.AllVisits()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fresh.LoadIndex(f); err != nil {
		t.Fatalf("LoadIndex from /index/save output: %v", err)
	}
	want, _, err := db.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fresh.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}
	requireMatches(t, toMatches(got), want)

	// GET is not allowed.
	r, err := http.Get(ts.URL + "/index/save")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /index/save: %d, want 405", r.StatusCode)
	}
}

// TestSaveMappedIndexEndpoint: with WithMappedIndexPath, POST /index/save
// writes the memory-mappable format, a fresh empty DB boots off it with no
// re-ingest, and /stats on the mapped server reports the buffer pool.
func TestSaveMappedIndexEndpoint(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 30, Days: 3},
		digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.map")
	ts := httptest.NewServer(New(db, WithMappedIndexPath(path)))
	t.Cleanup(ts.Close)

	var resp SaveIndexResponse
	if code, body := postJSON(t, ts.URL+"/index/save", struct{}{}, &resp); code != http.StatusOK {
		t.Fatalf("POST /index/save: %d: %s", code, body)
	}
	if resp.Path != path || resp.Bytes <= 0 || !resp.Mapped {
		t.Fatalf("save response = %+v, want the mapped path with bytes and mapped=true", resp)
	}

	// A fresh EMPTY DB serves straight off the file — no re-ingest.
	fresh, err := digitaltraces.NewGridDB(4, 0, digitaltraces.WithHashFunctions(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := fresh.LoadMappedIndex(path); err != nil {
		t.Fatalf("LoadMappedIndex from /index/save output: %v", err)
	}
	want, _, err := db.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fresh.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}
	requireMatches(t, toMatches(got), want)

	// A server over the mapped DB exposes the pool in /stats.
	ts2 := httptest.NewServer(New(fresh))
	t.Cleanup(ts2.Close)
	var stats StatsResponse
	getJSON(t, ts2.URL+"/stats", &stats)
	if !stats.Index.Mapped {
		t.Error("/stats mapped = false on a mapped engine")
	}
	if stats.Index.PoolHits+stats.Index.PoolMisses == 0 {
		t.Error("/stats reports no buffer-pool traffic after queries")
	}
	if stats.Index.PoolHitRate < 0 || stats.Index.PoolHitRate > 1 {
		t.Errorf("pool hit rate %v outside [0,1]", stats.Index.PoolHitRate)
	}
}

// TestSaveIndexEndpointUnconfigured: without WithIndexPath the endpoint
// refuses rather than writing somewhere surprising.
func TestSaveIndexEndpointUnconfigured(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/index/save", struct{}{}, nil)
	if code != http.StatusConflict {
		t.Errorf("unconfigured /index/save: %d (%s), want 409", code, body)
	}
	if !strings.Contains(body, "index-save") {
		t.Errorf("error %q does not point the operator at the flag", body)
	}
}
