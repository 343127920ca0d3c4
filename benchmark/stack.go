package main

import (
	"fmt"
	"net"
	"net/http"

	"digitaltraces"
	"digitaltraces/server"
	"digitaltraces/shard"
	"digitaltraces/shard/remote"
)

// stack is the real serving stack of one workload, booted in-process: an
// engine (a single DB, or a cluster over loopback shard servers) behind
// server.New on a loopback listener.
type stack struct {
	eng     digitaltraces.Engine
	srv     *server.Server
	url     string
	cluster *shard.Cluster   // nil on a single DB
	clients []*remote.Client // one per remote shard
	closers []func()         // run in reverse order by close
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen serves h on a fresh loopback port; the returned stop closes the
// listener and every connection and waits for the accept loop to end.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// setup boots the workload's stack from the visit records and returns once
// the front listener answers: ingest → BuildIndex → listener ready. This is
// the interval setup_s times.
func setup(w workload, d *dataset, recs []digitaltraces.VisitRecord) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	opts := []digitaltraces.Option{digitaltraces.WithHashFunctions(d.sz.nh)}
	if w.shards == 0 {
		if w.cache > 0 {
			opts = append(opts, digitaltraces.WithQueryCache(w.cache))
		}
		db, err := digitaltraces.NewGridDB(d.sz.side, d.sz.levels, opts...)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { db.Close() })
		st.eng = db
	} else {
		backends := make([]shard.Backend, w.shards)
		for i := range backends {
			db, err := digitaltraces.NewGridDB(d.sz.side, d.sz.levels, opts...)
			if err != nil {
				return nil, err
			}
			ss := remote.NewServer(db, remote.ServerConfig{})
			url, stop, err := listen(ss.Handler())
			if err != nil {
				ss.Close()
				db.Close()
				return nil, err
			}
			st.closers = append(st.closers, func() { stop(); ss.Close(); db.Close() })
			c, err := remote.Dial(url, remote.Options{})
			if err != nil {
				return nil, fmt.Errorf("dialing shard %d: %w", i, err)
			}
			st.closers = append(st.closers, func() { c.Close() })
			st.clients = append(st.clients, c)
			backends[i] = c
		}
		st.cluster, err = shard.NewCluster(shard.Config{Backends: backends})
		if err != nil {
			return nil, err
		}
		st.eng = st.cluster
	}
	if n, err := st.eng.AddVisits(recs); err != nil || n != len(recs) {
		return nil, fmt.Errorf("ingest stored %d of %d visits: %v", n, len(recs), err)
	}
	if err := st.eng.BuildIndex(); err != nil {
		return nil, err
	}
	st.srv = server.New(st.eng)
	url, stop, err := listen(st.srv)
	if err != nil {
		return nil, err
	}
	st.url = url
	st.closers = append(st.closers, stop)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz answered %s", resp.Status)
	}
	return st, nil
}

// remoteMetrics sums the shard clients' RPC counters (zero on a single DB).
func (s *stack) remoteMetrics() remote.Metrics {
	var sum remote.Metrics
	for _, c := range s.clients {
		m := c.Metrics()
		sum.RPCs += m.RPCs
		sum.Pulls += m.Pulls
		sum.Retries += m.Retries
	}
	return sum
}

// ownedSkew is the largest shard's owned-entity count over the mean (1 =
// perfectly level; 0 on a single DB).
func (s *stack) ownedSkew() float64 {
	if s.cluster == nil {
		return 0
	}
	total, most := 0, 0
	stats := s.cluster.ShardStats()
	for _, ss := range stats {
		total += ss.Owned
		most = max(most, ss.Owned)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(stats)) / float64(total)
}
