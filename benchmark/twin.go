package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/trace"
	"digitaltraces/server"
)

// twin is the benchmark's own copy of the data, built straight on the inner
// layers' public functions: a trace.Store for the scan that checks answers,
// and (traced run only) a MinSigTree built like the facade builds its own,
// so the inner layers can be timed without instrumenting the program.
type twin struct {
	d       *dataset
	store   *trace.Store
	ids     []trace.EntityID
	measure adm.Measure
	tree    *core.Tree // nil until buildTree

	sequencesTime time.Duration // trace.NewSequences over the population
	buildTime     time.Duration // core.Build: signature hashing + insertion
	fam           *sighash.Family
}

func newTwin(d *dataset) (*twin, error) {
	m, err := adm.NewPaperADM(d.sz.levels, 2, 2) // the facade's default measure
	if err != nil {
		return nil, err
	}
	t := &twin{d: d, store: trace.NewStore(d.ix), measure: m, ids: make([]trace.EntityID, len(d.recs))}
	start := time.Now()
	for i, recs := range d.recs {
		t.ids[i] = trace.EntityID(i)
		t.store.AddRecords(t.ids[i], recs)
	}
	t.sequencesTime = time.Since(start)
	return t, nil
}

// apply folds acknowledged writer batches into the twin (and the dataset's
// raw records behind it), so both describe the data the engine holds after
// the run.
func (t *twin) apply(batches []batch) {
	touched := map[trace.EntityID]bool{}
	for _, b := range batches {
		for _, r := range b.recs {
			t.d.recs[r.Entity] = append(t.d.recs[r.Entity], r)
			touched[r.Entity] = true
		}
	}
	for e := range touched {
		t.store.AddRecords(e, t.d.recs[e])
	}
}

// buildTree indexes the twin with the facade's own recipe (same hash family
// parameters, same entity order).
func (t *twin) buildTree() error {
	fam, err := sighash.NewFamily(t.d.ix, t.d.horizon, t.d.sz.nh, hashSeed)
	if err != nil {
		return err
	}
	start := time.Now()
	tree, err := core.Build(t.d.ix, fam, t.store, t.ids)
	if err != nil {
		return err
	}
	t.buildTime, t.fam, t.tree = time.Since(start), fam, tree
	return nil
}

// scan is the ground truth: the paper's comparator, an exact degree for
// every entity.
func (t *twin) scan(e int32) []core.Result {
	return core.BruteForceTopK(t.store, t.ids, t.store.Get(trace.EntityID(e)), topK, t.measure)
}

// verify asks the serving stack for verifySamples seeded entities' answers
// over the same HTTP path the load used and compares each with the scan,
// bit for bit: entities, degrees and order. It returns the number of
// mismatching or failed answers.
func (t *twin) verify(c *client, seed int64) (attempted, failed int, first error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7E57))
	var buf bytes.Buffer
	for i := 0; i < verifySamples; i++ {
		e := int32(rng.Intn(len(t.ids)))
		attempted++
		var reply server.TopKResponse
		_, err := c.post("/topk", t.d.bodies[e], &buf, &reply)
		if err == nil {
			err = t.sameAnswer(reply.Matches, t.scan(e))
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("verify %s: %w", t.d.names[e], err)
			}
		}
	}
	return attempted, failed, first
}

func (t *twin) sameAnswer(got []server.Match, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, scan has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Entity != t.d.names[w.Entity] || got[i].Degree != w.Degree {
			return fmt.Errorf("rank %d is %s (%v), scan has %s (%v)", i, got[i].Entity, got[i].Degree, t.d.names[w.Entity], w.Degree)
		}
	}
	return nil
}
