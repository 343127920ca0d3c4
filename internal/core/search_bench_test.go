package core

import (
	"math/rand"
	"testing"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/mobility"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// BenchmarkPostingsSearch splits where a served query's time goes, on the
// serving benchmark's population (benchmark/'s full size: 20 000 WiFi
// devices, detection 0.05, a 32×32 grid of 4 levels, 14 days) under the
// paper measure u = v = 2, k = 10, over a fixed sequence of random queries.
// "topk" is Postings.TopK end to end and reports the exact degrees it
// computed (checked/op); "mark" is newFrontier alone — stamp the query's
// postings, bucket the hits, rank the buckets — and reports the candidates it
// queues (candidates/op). Scoring is the difference of the two.
func BenchmarkPostingsSearch(b *testing.B) {
	ix, err := spindex.NewGrid(spindex.DefaultGridConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	cfg := mobility.DefaultWiFiConfig()
	cfg.Horizon = 14 * 24
	cfg.DetectionProb = 0.05
	gen, err := mobility.NewWiFiGenerator(ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := gen.GenerateStore(20000)
	post, err := BuildPostings(ix, st, st.Entities())
	if err != nil {
		b.Fatal(err)
	}
	m, err := adm.NewPaperADM(ix.Height(), 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]*trace.Sequences, 3000)
	for i := range queries {
		queries[i] = st.Get(trace.EntityID(rng.Intn(post.Len())))
	}
	b.Run("topk", func(b *testing.B) {
		n, checked := 0, 0
		b.ReportAllocs()
		for ; b.Loop(); n++ {
			_, stats, err := post.TopK(queries[n%len(queries)], 10, m)
			if err != nil {
				b.Fatal(err)
			}
			checked += stats.Checked
		}
		b.ReportMetric(float64(checked)/float64(n), "checked/op")
	})
	b.Run("mark", func(b *testing.B) {
		n, candidates := 0, 0
		b.ReportAllocs()
		for ; b.Loop(); n++ {
			f, err := post.newFrontier(queries[n%len(queries)], m)
			if err != nil {
				b.Fatal(err)
			}
			candidates += len(f.pooled.order)
			f.release()
		}
		b.ReportMetric(float64(candidates)/float64(n), "candidates/op")
	})
}
