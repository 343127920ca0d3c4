package shard

// Benchmarks comparing the single DB against entity-partitioned clusters:
// index build (the parallel-build win), single-query scatter-gather latency,
// and batch throughput. CI runs these once per push (-benchtime 1x) as a
// smoke test so regressions in the merge path fail loudly; for real numbers
// use cmd/bench, which also records the parallel critical path on machines
// with fewer cores than shards.
//
//	go test -bench 'Cluster' -benchmem ./shard

import (
	"fmt"
	"testing"

	"digitaltraces"
)

const (
	benchSide     = 8
	benchLevels   = 4
	benchEntities = 400
	benchDays     = 5
	benchHash     = 64
)

func benchCity(b *testing.B) *digitaltraces.DB {
	b.Helper()
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{
		Side: benchSide, Levels: benchLevels, Entities: benchEntities, Days: benchDays, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func benchCluster(b *testing.B, src *digitaltraces.DB, n int) *Cluster {
	b.Helper()
	c, err := Partition(src, Config{
		Shards: n,
		NewShard: func(i int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(benchSide, benchLevels)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkClusterBuild measures BuildIndex wall clock per cluster size
// (shards=1 ≈ the single-DB baseline plus routing overhead) and reports the
// parallel critical path — the wall clock on a machine with ≥ N cores — as
// a custom metric.
func BenchmarkClusterBuild(b *testing.B) {
	src := benchCity(b)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c := benchCluster(b, src, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.BuildIndex(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(c.IndexStats().BuildTime.Seconds(), "critical-path-s/op")
		})
	}
}

// BenchmarkClusterTopK measures one scatter-gather query end to end.
func BenchmarkClusterTopK(b *testing.B) {
	src := benchCity(b)
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c := benchCluster(b, src, n)
			if err := c.BuildIndex(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.TopK(fmt.Sprintf("entity-%d", i%benchEntities), 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterTopKBatch measures batch throughput through the cluster
// worker pool (every query still fans out to all shards).
func BenchmarkClusterTopKBatch(b *testing.B) {
	src := benchCity(b)
	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("entity-%d", i*3%benchEntities)
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c := benchCluster(b, src, n)
			if err := c.BuildIndex(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.TopKBatch(names, 10, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(names)), "queries/op")
		})
	}
}
