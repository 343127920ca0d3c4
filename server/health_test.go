package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
	"digitaltraces/shard/remote"
)

// TestHealthzLivenessPlainDB: a single-DB server keeps the plain-text
// liveness reply.
func TestHealthzLivenessPlainDB(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("plain /healthz: %d %q", resp.StatusCode, body)
	}
}

// TestTracesCarryShardAddr: a traced coordinator over remote shards reports
// each fan-out leg's shard server address in the /traces rows.
func TestTracesCarryShardAddr(t *testing.T) {
	var clients []*remote.Client
	var backends []shard.Backend
	for i := 0; i < 2; i++ {
		db, err := digitaltraces.NewGridDB(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs := remote.NewServer(db, remote.ServerConfig{})
		hs := httptest.NewServer(rs.Handler())
		t.Cleanup(func() { hs.Close(); rs.Close(); db.Close() })
		c, err := remote.Dial(hs.URL, remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
		backends = append(backends, c)
	}
	cluster, err := shard.NewCluster(shard.Config{Backends: backends, TraceSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(0, 0).UTC()
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("e%d", i)
		if err := cluster.AddVisit(name, "venue-1", base.Add(time.Hour), base.Add(3*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cluster))
	t.Cleanup(ts.Close)

	var tk TopKResponse
	getJSON(t, ts.URL+"/topk?entity=e0&k=3", &tk)
	var tr TracesResponse
	getJSON(t, ts.URL+"/traces", &tr)
	if len(tr.Traces) == 0 {
		t.Fatal("no traces recorded")
	}
	want := map[string]bool{}
	for _, c := range clients {
		want[c.Addr()] = false
	}
	for _, qt := range tr.Traces {
		for _, st := range qt.Shards {
			if _, ok := want[st.Addr]; !ok {
				t.Fatalf("trace shard row carries unknown addr %q (want one of %v)", st.Addr, want)
			}
			want[st.Addr] = true
		}
	}
	for addr, seen := range want {
		if !seen {
			t.Fatalf("no trace row carries shard address %s", addr)
		}
	}
}

// TestHealthzReadinessRemoteShards: a coordinator over remote shards answers
// /healthz with per-shard rows, and an unreachable shard flips the probe to
// 503 naming the failing address.
func TestHealthzReadinessRemoteShards(t *testing.T) {
	newShard := func() (*remote.Client, *httptest.Server) {
		db, err := digitaltraces.NewGridDB(4, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs := remote.NewServer(db, remote.ServerConfig{})
		hs := httptest.NewServer(rs.Handler())
		t.Cleanup(func() { hs.Close(); rs.Close(); db.Close() })
		c, err := remote.Dial(hs.URL, remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, hs
	}
	c0, _ := newShard()
	c1, hs1 := newShard()
	cluster, err := shard.NewCluster(shard.Config{Backends: []shard.Backend{c0, c1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cluster))
	t.Cleanup(ts.Close)

	var ready HealthResponse
	getJSON(t, ts.URL+"/healthz", &ready)
	if !ready.OK || len(ready.Failing) != 0 || len(ready.Shards) != 2 {
		t.Fatalf("healthy coordinator: %+v", ready)
	}
	for _, row := range ready.Shards {
		if !row.OK || row.Addr == "" {
			t.Fatalf("healthy shard row missing OK/addr: %+v", row)
		}
	}

	hs1.Close() // shard 1's server dies
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz returned %d, want 503", resp.StatusCode)
	}
	var degraded HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.OK {
		t.Fatal("degraded probe still reports ok")
	}
	dead := c1.Addr()
	if len(degraded.Failing) != 1 || degraded.Failing[0] != dead {
		t.Fatalf("failing list %v does not name the dead shard %s", degraded.Failing, dead)
	}
	var sawDeadRow bool
	for _, row := range degraded.Shards {
		if row.Addr == dead {
			sawDeadRow = true
			if row.OK || !strings.Contains(row.Error, dead) {
				t.Fatalf("dead shard row does not carry a named error: %+v", row)
			}
		}
	}
	if !sawDeadRow {
		t.Fatalf("no row for dead shard %s: %+v", dead, degraded.Shards)
	}
}
