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
	"reflect"
	"strings"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

func newTestServer(t *testing.T) (*digitaltraces.DB, *httptest.Server) {
	t.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3})
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

// TestVisitIngestOverHTTP: ingested visits are queryable when the reply
// arrives, with or without the (ignored) refresh flag.
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
	// The ingest swapped a second snapshot in; /stats reports the generation
	// counter, the swap timestamp, and the drained dirty set.
	if st.Index.Generation < 2 {
		t.Errorf("generation = %d after build+refresh, want ≥ 2", st.Index.Generation)
	}
	if ts0, err := time.Parse(time.RFC3339Nano, st.Index.LastSwap); err != nil || ts0.IsZero() {
		t.Errorf("last_swap %q unparseable: %v", st.Index.LastSwap, err)
	}

	// A body without refresh is indexed when the reply arrives too.
	gen := st.Index.Generation
	ing = VisitsResponse{}
	if code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{
		{Entity: "straggler", Venue: "venue-2", Start: epoch.Add(2 * time.Hour), End: epoch.Add(3 * time.Hour)},
	}}, &ing); code != http.StatusOK {
		t.Fatalf("POST /visits without refresh: %d: %s", code, body)
	}
	if ing.Added != 1 || !ing.Refreshed {
		t.Fatalf("ingest reply without refresh = %+v, want 1 added and refreshed", ing)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.Generation != gen+1 || st.Index.Entities != 42 {
		t.Errorf("after ingest without refresh: generation %d → %d, %d entities; want the straggler folded",
			gen, st.Index.Generation, st.Index.Entities)
	}
	getJSON(t, ts.URL+"/topk?entity=straggler&k=3", &got)
	if len(got.Matches) != 3 {
		t.Fatalf("straggler not queryable: %+v", got)
	}
}

// TestStatsCacheRevalidation: a write that cannot change a cached answer
// leaves it served (cache_revalidated), one to the query entity drops it
// (cache_invalidated).
func TestStatsCacheRevalidation(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3},
		digitaltraces.WithQueryCache(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	epoch := time.Unix(0, 0).UTC()
	write := func(entity string, hour int) {
		t.Helper()
		visit := Visit{Entity: entity, Venue: "venue-0", Start: epoch.Add(time.Duration(hour) * time.Hour), End: epoch.Add(time.Duration(hour+1) * time.Hour)}
		if code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{visit}}, nil); code != http.StatusOK {
			t.Fatalf("POST /visits: %d: %s", code, body)
		}
	}
	query := func() bool {
		t.Helper()
		var got TopKResponse
		getJSON(t, ts.URL+"/topk?entity=entity-0&k=3", &got)
		return got.Stats.CacheHit
	}
	var st StatsResponse
	query()
	write("loner", 500) // a new entity sharing no cell with anyone
	if !query() {
		t.Fatal("answer not served across a write that cannot change it")
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.CacheRevalidated != 1 || st.Index.CacheInvalidated != 0 || st.Index.CacheHits != 1 {
		t.Fatalf("after an unrelated write: %+v", st.Index)
	}
	write("entity-0", 1)
	if query() {
		t.Fatal("answer served across a write to the query entity")
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.CacheRevalidated != 1 || st.Index.CacheInvalidated != 1 {
		t.Fatalf("after a write to the query entity: %+v", st.Index)
	}
}

// TestStatsCacheBatch: /topk/batch items go through the cache like /topk, so
// a repeated batch on a cached DB raises cache_hits by the batch size.
func TestStatsCacheBatch(t *testing.T) {
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3},
		digitaltraces.WithQueryCache(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	req := BatchRequest{Entities: []string{"entity-0", "entity-1", "entity-2"}, K: 3}
	var first, second BatchResponse
	var before, after StatsResponse
	if code, body := postJSON(t, ts.URL+"/topk/batch", req, &first); code != http.StatusOK {
		t.Fatalf("POST /topk/batch: %d: %s", code, body)
	}
	getJSON(t, ts.URL+"/stats", &before)
	if code, body := postJSON(t, ts.URL+"/topk/batch", req, &second); code != http.StatusOK {
		t.Fatalf("repeated POST /topk/batch: %d: %s", code, body)
	}
	getJSON(t, ts.URL+"/stats", &after)
	if got := after.Index.CacheHits - before.Index.CacheHits; got != uint64(len(req.Entities)) {
		t.Fatalf("repeated batch raised cache_hits by %d, want %d", got, len(req.Entities))
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatalf("repeated batch answered %v, first %v", second.Results, first.Results)
	}
}

// foldFailing is an engine whose every write stores its records and then
// fails to fold them.
type foldFailing struct{ digitaltraces.Engine }

func (e foldFailing) AddVisits(visits []digitaltraces.VisitRecord) (int, error) {
	n, err := e.Engine.AddVisits(visits)
	if err == nil {
		err = fmt.Errorf("fold failed")
	}
	return n, err
}

// TestVisitsFoldFailure: a fold that fails after the records are stored
// answers 409 with the stored count, as a refused record answers 400 with
// the count before it.
func TestVisitsFoldFailure(t *testing.T) {
	db, _ := newTestServer(t)
	ts := httptest.NewServer(New(foldFailing{db}))
	defer ts.Close()
	epoch := time.Unix(0, 0).UTC()
	visits := []Visit{
		{Entity: "newcomer", Venue: "venue-0", Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
		{Entity: "newcomer", Venue: "venue-1", Start: epoch.Add(3 * time.Hour), End: epoch.Add(4 * time.Hour)},
	}
	var ing VisitsResponse
	code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits}, nil)
	if code != http.StatusConflict || json.Unmarshal([]byte(body), &ing) != nil {
		t.Fatalf("POST /visits with a failing fold: %d: %s, want 409", code, body)
	}
	if ing.Added != 2 || ing.Refreshed || !strings.Contains(ing.Error, "fold failed") {
		t.Fatalf("reply %+v, want 2 added, not refreshed, the fold's error", ing)
	}
	visits[1].Venue = "no-such-venue"
	ing = VisitsResponse{}
	code, body = postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits}, nil)
	if code != http.StatusBadRequest || json.Unmarshal([]byte(body), &ing) != nil {
		t.Fatalf("POST /visits with a refused record: %d: %s, want 400", code, body)
	}
	if ing.Added != 1 {
		t.Fatalf("reply %+v, want 1 added before the refused record", ing)
	}
}

// TestVisitsRequestSpanIsBounded: what a visit costs grows with the time
// units it lasts, so one request's visits may last at most maxVisitUnits
// units in total. A request past the cap is refused with a 400 that names it,
// before anything is stored, whether one visit or the sum of many passes it;
// a request at the cap is stored.
func TestVisitsRequestSpanIsBounded(t *testing.T) {
	db, ts := newTestServer(t)
	epoch := time.Unix(0, 0).UTC()
	stay := func(entity string, from, hours int) Visit {
		start := epoch.Add(time.Duration(from) * time.Hour)
		return Visit{Entity: entity, Venue: "venue-0", Start: start, End: start.Add(time.Duration(hours) * time.Hour)}
	}
	const half = maxVisitUnits / 2
	entities := db.NumEntities()
	for label, visits := range map[string][]Visit{
		"one long visit": {stay("long", 0, maxVisitUnits+1)},
		"many visits":    {stay("long", 0, half), stay("long", half, half/2), stay("other", 0, half/2+1)},
	} {
		var ing VisitsResponse
		code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits}, nil)
		if code != http.StatusBadRequest || json.Unmarshal([]byte(body), &ing) != nil {
			t.Fatalf("%s past the cap: %d: %s, want 400", label, code, body)
		}
		if ing.Added != 0 || !strings.Contains(ing.Error, fmt.Sprintf("%d time units", maxVisitUnits)) {
			t.Fatalf("%s past the cap: reply %+v, want nothing added and the cap named", label, ing)
		}
	}
	if n := db.NumEntities(); n != entities {
		t.Fatalf("refused requests registered %d entities", n-entities)
	}
	// At the cap, on a DB with no index yet: the visits are stored, not folded.
	fresh, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 4, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := httptest.NewServer(New(fresh))
	defer at.Close()
	if code, body := postJSON(t, at.URL+"/visits", VisitsRequest{Visits: []Visit{stay("long", 0, half), stay("other", 0, half)}}, nil); code != http.StatusOK {
		t.Fatalf("a request at the cap: %d: %s", code, body)
	}
}

// TestVisitsPastTimeRange: a visit ending past the 2³¹−1 units a stored time
// can hold — 68 years at a one-second unit — is a 400 naming the range, with
// nothing stored, not a visit that wraps into the past.
func TestVisitsPastTimeRange(t *testing.T) {
	epoch := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	db, err := digitaltraces.NewGridDB(4, 0, digitaltraces.WithTimeUnit(time.Second), digitaltraces.WithEpoch(epoch))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	late := epoch.AddDate(80, 0, 0)
	var ing VisitsResponse
	code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: []Visit{{Entity: "x", Venue: "venue-0", Start: late, End: late.Add(time.Hour)}}}, nil)
	if code != http.StatusBadRequest || json.Unmarshal([]byte(body), &ing) != nil {
		t.Fatalf("a visit 80 years past the epoch: %d: %s, want 400", code, body)
	}
	if ing.Added != 0 || !strings.Contains(ing.Error, "past the time range") || db.NumEntities() != 0 {
		t.Fatalf("reply %+v with %d entities stored; want nothing added and the range named", ing, db.NumEntities())
	}
}

// TestVisitsPastBuiltDataRefreshIncrementally: visits far past everything
// the index was built over, posted with refresh, fold in incrementally —
// /stats shows one more generation, the build time kept and the refresh's own
// duration — and the answers equal a DB built from scratch over the same data.
func TestVisitsPastBuiltDataRefreshIncrementally(t *testing.T) {
	_, ts := newTestServer(t)
	var before StatsResponse
	getJSON(t, ts.URL+"/stats", &before)
	far := digitaltraces.TimeAt(3*24 + 100)
	visits := []Visit{
		{Entity: "traveler", Venue: "venue-0", Start: far, End: far.Add(2 * time.Hour)},
		{Entity: "entity-3", Venue: "venue-0", Start: far.Add(time.Hour), End: far.Add(3 * time.Hour)},
	}
	var ing VisitsResponse
	if code, body := postJSON(t, ts.URL+"/visits", VisitsRequest{Visits: visits, Refresh: true}, &ing); code != http.StatusOK || !ing.Refreshed {
		t.Fatalf("POST /visits: %d: %s", code, body)
	}
	var after StatsResponse
	getJSON(t, ts.URL+"/stats", &after)
	if after.Index.Generation != before.Index.Generation+1 || after.Index.BuildMS != before.Index.BuildMS || after.Index.LastRefreshMS <= 0 {
		t.Fatalf("stats %+v after, %+v before: want one incremental refresh", after.Index, before.Index)
	}
	twin, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range visits {
		if err := twin.AddVisit(v.Entity, v.Venue, v.Start, v.End); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"traveler", "entity-3", "entity-0"} {
		want, _, err := twin.TopK(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		var got TopKResponse
		getJSON(t, ts.URL+"/topk?entity="+q+"&k=5", &got)
		requireMatches(t, got.Matches, want)
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
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 40, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.Partition(db, shard.Config{
		Shards: 4,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(4, 4)
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
			return digitaltraces.NewGridDB(4, 0)
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

// TestSaveIndexEndpoint: POST /index/save persists the image, and a DB over
// the re-ingested log opens it and answers identically.
func TestSaveIndexEndpoint(t *testing.T) {
	db, path, ts := saveIndexThroughServer(t)

	reingested, err := digitaltraces.NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reingested.Close() })
	if _, err := reingested.AddVisits(db.AllVisits()); err != nil {
		t.Fatal(err)
	}
	if err := reingested.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex from /index/save output: %v", err)
	}
	want, _, err := db.TopK("entity-3", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := reingested.TopK("entity-3", 5)
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

// TestSaveMappedIndexEndpoint: a fresh empty DB boots off the file POST
// /index/save wrote, with no re-ingest, and /stats on a server over it
// reports the image entities its queries decoded.
func TestSaveMappedIndexEndpoint(t *testing.T) {
	db, path, _ := saveIndexThroughServer(t)

	fresh, err := digitaltraces.NewGridDB(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := fresh.OpenIndex(path); err != nil {
		t.Fatalf("OpenIndex from /index/save output: %v", err)
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

	ts := httptest.NewServer(New(fresh))
	t.Cleanup(ts.Close)
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if !stats.Index.Mapped {
		t.Error("/stats mapped = false on a mapped engine")
	}
	if stats.Index.Decoded == 0 {
		t.Error("/stats reports no decoded image entity after queries")
	}
}

// saveIndexThroughServer builds a small city, saves its index with POST
// /index/save and checks the response against the file written. It returns
// the DB, the file's path and the server.
func saveIndexThroughServer(t *testing.T) (*digitaltraces.DB, string, *httptest.Server) {
	t.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{Side: 4, Entities: 30, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.map")
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
	return db, path, ts
}

// TestSaveIndexEndpointUnconfigured: without WithIndexPath the endpoint
// refuses rather than writing somewhere surprising.
func TestSaveIndexEndpointUnconfigured(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := postJSON(t, ts.URL+"/index/save", struct{}{}, nil)
	if code != http.StatusConflict {
		t.Errorf("unconfigured /index/save: %d (%s), want 409", code, body)
	}
	if !strings.Contains(body, "cmd/serve -index)") {
		t.Errorf("error %q does not point the operator at the flag", body)
	}
}
