package shard

import (
	"fmt"
	"testing"

	"digitaltraces"
)

// benchCity builds the BENCH_sharding configuration once per benchmark run.
func gatherBenchCluster(b *testing.B, shards int) *Cluster {
	b.Helper()
	src, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{
		Side: 16, Levels: 4, Entities: 2000, Days: 7, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := Partition(src, Config{
		Shards: shards,
		NewShard: func(int) (*digitaltraces.DB, error) {
			return digitaltraces.NewGridDB(16, 4)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	return c
}

func benchQueries(c *Cluster, b *testing.B, topk func(string, int) ([]digitaltraces.Match, digitaltraces.QueryStats, error)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("entity-%d", (i*37)%2000)
		if _, _, err := topk(name, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterTopKPruned(b *testing.B) {
	c := gatherBenchCluster(b, 8)
	benchQueries(c, b, c.TopK)
}
