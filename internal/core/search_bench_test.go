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
// computed (checked/op) and the candidates of the tiers it bucketed
// (bucketed/op). "mark" is newFrontier alone — stamp the query's postings
// shortest list first, lay out the tiers and the first one's reach — and
// reports the hits it stamped (hits/op); it buckets nothing, so bucketing the
// reached tiers and scoring are the difference of the two (before tiers,
// "mark" also bucketed and ranked every hit, so its older figures are not
// comparable). "rank" is one non-home shard's call of a 4-shard cluster
// query: Rank for want 11 at the query's own k-th degree, under a filter that
// admits every fourth entity ID; it reports the exact degrees computed
// (checked/op), the candidates bucketed (bucketed/op) and the filter's calls
// (keeps/op).
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
		n, checked, bucketed := 0, 0, 0
		b.ReportAllocs()
		for ; b.Loop(); n++ {
			_, stats, err := post.TopK(queries[n%len(queries)], 10, m)
			if err != nil {
				b.Fatal(err)
			}
			checked += stats.Checked
			bucketed += stats.bucketed
		}
		b.ReportMetric(float64(checked)/float64(n), "checked/op")
		b.ReportMetric(float64(bucketed)/float64(n), "bucketed/op")
	})
	b.Run("rank", func(b *testing.B) {
		floors := make([]float64, len(queries))
		for i, q := range queries {
			res, _, err := post.TopK(q, 10, m)
			if err != nil {
				b.Fatal(err)
			}
			floors[i] = res[len(res)-1].Degree
		}
		n, checked, bucketed, keeps := 0, 0, 0, 0
		keep := func(e trace.EntityID) bool { keeps++; return e%4 == 0 }
		b.ReportAllocs()
		for ; b.Loop(); n++ {
			r, err := post.Rank(queries[n%len(queries)], 11, floors[n%len(queries)], keep, nil, m)
			if err != nil {
				b.Fatal(err)
			}
			checked += r.Stats.Checked
			bucketed += r.Stats.bucketed
		}
		b.ReportMetric(float64(checked)/float64(n), "checked/op")
		b.ReportMetric(float64(bucketed)/float64(n), "bucketed/op")
		b.ReportMetric(float64(keeps)/float64(n), "keeps/op")
	})
	b.Run("mark", func(b *testing.B) {
		n, hits := 0, 0
		b.ReportAllocs()
		for ; b.Loop(); n++ {
			f, err := post.newFrontier(queries[n%len(queries)], m)
			if err != nil {
				b.Fatal(err)
			}
			hits += len(f.pooled.hits)
			f.release()
		}
		b.ReportMetric(float64(hits)/float64(n), "hits/op")
	})
}
