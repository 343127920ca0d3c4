package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"digitaltraces/server"
)

// client is the load generator's HTTP side: keep-alive connections to the
// front listener, one per concurrent caller.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes the JSON reply into out, returning
// the reply's size. Anything but a decodable 200 is an error.
func (c *client) post(path string, body []byte, buf *bytes.Buffer, out any) (int, error) {
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s answered %s: %s", path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Len(), json.Unmarshal(buf.Bytes(), out)
}

// tally sums what the /topk replies' stats blocks report.
type tally struct {
	ops, failed int
	hits        int     // replies served from the query cache
	checked     int     // exact degrees computed (all shards)
	pruned      float64 // sum of per-search pruned fractions
	pulled      int     // candidates the shards surrendered to the coordinator
	mergeUS     int64
	respBytes   int
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.hits += o.hits
	t.checked += o.checked
	t.pruned += o.pruned
	t.pulled += o.pulled
	t.mergeUS += o.mergeUS
	t.respBytes += o.respBytes
}

// segment is one closed-loop stretch of the reader.
type segment struct {
	tally
	lat  []float64 // ms per completed /topk, in order
	wall time.Duration
	cpu  time.Duration // process user+system time spent meanwhile
	err  error         // first failure, for the log
}

func (s segment) qps() float64 { return float64(len(s.lat)) / s.wall.Seconds() }
func (s segment) cpuMSPerOp() float64 {
	if len(s.lat) == 0 {
		return 0
	}
	return float64(s.cpu.Microseconds()) / 1e3 / float64(len(s.lat))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reader is the single closed-loop /topk client: it sends the next request
// of the sequence only after the previous reply arrived.
type reader struct {
	c    *client
	d    *dataset
	ops  *opSeq
	next int // position in ops.queries
	buf  bytes.Buffer
}

// run issues queries until maxOps were sent or the deadline passed,
// whichever is set (zero means unset) and comes first.
func (r *reader) run(maxOps int, deadline time.Time) segment {
	seg := segment{}
	if maxOps > 0 {
		seg.lat = make([]float64, 0, maxOps)
	}
	cpu0, start := cpuTime(), time.Now()
	for maxOps == 0 || seg.ops < maxOps {
		t0 := time.Now()
		if !deadline.IsZero() && !t0.Before(deadline) {
			break
		}
		e := r.ops.queries[r.next%len(r.ops.queries)]
		r.next++
		seg.ops++
		var reply server.TopKResponse
		n, err := r.c.post("/topk", r.d.bodies[e], &r.buf, &reply)
		if err != nil {
			seg.failed++
			if seg.err == nil {
				seg.err = err
			}
			continue
		}
		seg.lat = append(seg.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		seg.respBytes += n
		if reply.Stats.CacheHit {
			seg.hits++
		} else {
			seg.checked += reply.Stats.Checked
			seg.pruned += reply.Stats.Pruned
			seg.pulled += reply.Stats.Pulled
			seg.mergeUS += reply.Stats.MergeUS
		}
	}
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	return seg
}

// writer is the second client of the ingest workload: it POSTs one batch
// every writerPeriod, timed from the intended send time so that a stalled
// server is charged for the requests it delayed.
type writer struct {
	c       *client
	batches []batch

	stop chan struct{}
	done sync.WaitGroup

	// Written by the writer goroutine, read after wait returns.
	sent     int       // batches acknowledged with 200, a prefix of batches
	failed   int       // batches refused or lost
	lat      []float64 // ms from intended send time to reply
	lateness []float64 // ms the generator itself ran behind schedule
	err      error
}

func startWriter(c *client, batches []batch) *writer {
	w := &writer{c: c, batches: batches, stop: make(chan struct{})}
	w.done.Add(1)
	go w.loop(time.Now())
	return w
}

func (w *writer) loop(t0 time.Time) {
	defer w.done.Done()
	var buf bytes.Buffer
	for i, b := range w.batches {
		due := t0.Add(time.Duration(i+1) * writerPeriod)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-w.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		w.lateness = append(w.lateness, float64(time.Since(due).Nanoseconds())/1e6)
		var reply server.VisitsResponse
		if _, err := w.c.post("/visits", b.body, &buf, &reply); err != nil || reply.Added != len(b.recs) || !reply.Refreshed {
			w.failed++
			if w.err == nil {
				w.err = fmt.Errorf("batch %d: added %d of %d, refreshed %t: %v", i, reply.Added, len(b.recs), reply.Refreshed, err)
			}
			return // later batches would make the twin diverge from the engine
		}
		w.sent++
		w.lat = append(w.lat, float64(time.Since(due).Nanoseconds())/1e6)
	}
}

// finish stops the schedule, waits for the in-flight batch, adds the
// writer's ops to res and returns the batches the server acknowledged. A nil
// writer (a workload without one) has sent nothing.
func (w *writer) finish(res *result, log io.Writer) []batch {
	if w == nil {
		return nil
	}
	close(w.stop)
	w.done.Wait()
	logErr(log, w.err)
	res.Attempted += w.sent + w.failed
	res.Failed += w.failed
	return w.batches[:w.sent]
}
