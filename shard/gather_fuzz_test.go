package shard

// Fuzz target for the one-call gather.
//
// FuzzBoundedGather decodes arbitrary bytes into a population of model
// shards behind the Backend seam — coarse degrees to force ties, colliding
// ordinals to force name tie-breaks, and foreign copies (entities a shard
// holds but the slot map assigns elsewhere, at any degree) — and runs the
// cluster's own TopK or TopKByExample over them. Each model shard answers
// Rank by its contract: its owned entries in the global order (a shard ranks
// by the ordinal each entity arrived with) at or above the floor, cut at
// want. The oracle is a full sort of every owned entry under the global
// order: the gather must return exactly its first k, asking each shard at
// most once.
//
// Run the smoke in CI with:
//
//	go test -run=^$ -fuzz=FuzzBoundedGather -fuzztime=10s ./shard/
//
// The seed corpus lives in testdata/fuzz/FuzzBoundedGather plus the f.Add
// seeds below.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"digitaltraces"
)

// modelShard is one shard of a gather case: the entries it holds in its local
// rank order. It implements only what a query asks of a Backend.
type modelShard struct {
	Backend
	list  []entry
	calls int
	err   error
}

func (s *modelShard) NumEntities() int { return len(s.list) }

// Rank is the shard's contract over its order: owned entries at or above the
// floor, the query entity excluded, cut at want.
func (s *modelShard) Rank(req RankRequest) (digitaltraces.Ranked, error) {
	s.calls++
	if s.err != nil {
		return digitaltraces.Ranked{}, s.err
	}
	var r digitaltraces.Ranked
	for _, e := range s.list {
		if !req.Owned.Has(SlotOf(e.m.Entity)) || e.m.Entity == req.Entity || e.m.Degree < req.Floor {
			continue
		}
		if len(r.Matches) >= req.Want {
			r.Bound = max(r.Bound, e.m.Degree)
			continue
		}
		r.Matches, r.Keys = append(r.Matches, e.m), append(r.Keys, e.rank)
	}
	r.Capped = len(r.Matches) >= req.Want
	return r, nil
}

// gatherCase is a decoded fuzz input: the model cluster, the query k and the
// query entity ("" for a query by example).
type gatherCase struct {
	c      *Cluster
	shards []*modelShard
	owned  []entry // every entity once, at its owner's degree
	k      int
	entity string
}

// decodeGatherCase maps fuzz bytes onto a gather case. Every byte string
// decodes to something valid; short inputs produce small cases.
func decodeGatherCase(data []byte) gatherCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := gatherCase{k: 1 + next()%12}
	n := 1 + next()%6
	sm := DefaultSlotMap(n)
	g.c = &Cluster{ord: map[string]int{}}
	g.shards = make([]*modelShard, n)
	for i := range g.shards {
		g.shards[i] = &modelShard{}
		g.c.shards = append(g.c.shards, g.shards[i])
	}
	g.c.slots.Store(sm)
	degree := func() float64 { return float64(next()%8) / 7 }
	for j, m := 0, next()%40; j < m; j++ {
		name := fmt.Sprintf("e%d", j)
		// Colliding ordinals are allowed: compareEntries falls back to the name.
		e := entry{m: digitaltraces.Match{Entity: name, Degree: degree()}, rank: uint32(next() % 32)}
		g.c.ord[name] = int(e.rank)
		g.owned = append(g.owned, e)
		owner := g.shards[sm.Owner(name)]
		owner.list = append(owner.list, e)
		if b := next(); b%4 == 0 {
			// A foreign copy, stale or shipped early, at any degree.
			foreign := g.shards[b/4%n]
			if foreign != owner {
				foreign.list = append(foreign.list, entry{m: digitaltraces.Match{Entity: name, Degree: degree()}, rank: e.rank})
			}
		}
	}
	for _, s := range g.shards {
		slices.SortStableFunc(s.list, compareEntries)
	}
	if b := next(); b%2 == 1 && len(g.owned) > 0 {
		g.entity = g.owned[b/2%len(g.owned)].m.Entity
	}
	return g
}

// run answers the case's query through the cluster and returns the answer
// with the oracle's: the first k owned entries other than the query entity
// under the global order.
func (g gatherCase) run(t *testing.T) (got, want []digitaltraces.Match, qs digitaltraces.QueryStats) {
	t.Helper()
	var err error
	if g.entity != "" {
		got, qs, err = g.c.TopK(g.entity, g.k)
	} else {
		got, qs, err = g.c.TopKByExample(nil, g.k)
	}
	if err != nil {
		if len(g.owned) == 0 && g.entity == "" {
			return nil, nil, qs // an empty cluster has nothing to rank
		}
		t.Fatalf("query %q k=%d: %v", g.entity, g.k, err)
	}
	all := append([]entry(nil), g.owned...)
	slices.SortFunc(all, compareEntries)
	want = []digitaltraces.Match{}
	for _, e := range all {
		if len(want) < g.k && e.m.Entity != g.entity {
			want = append(want, e.m)
		}
	}
	for i, s := range g.shards {
		if s.calls > 1 {
			t.Fatalf("shard %d asked %d times in one query", i, s.calls)
		}
	}
	return got, want, qs
}

func FuzzBoundedGather(f *testing.F) {
	// Seeds that reach the interesting regimes: empty case, single shard,
	// many tied degrees, foreign copies, large k, and
	// queries by entity and by example.
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 7, 2, 6, 3, 4, 0, 5, 1, 5, 2, 3, 3, 0, 0})
	f.Add([]byte{0, 3, 0, 1, 5, 2, 7, 0, 7, 0, 7, 0, 4, 1, 0, 2, 1})
	f.Add([]byte{11, 4, 7, 7, 0, 7, 7, 4, 7, 7, 8, 7, 7, 0, 7, 7, 12, 7, 7, 0, 7, 7, 1, 0, 0, 0, 5})
	f.Add([]byte{2, 2, 6, 0, 0, 7, 1, 4, 6, 2, 8, 5, 3, 0, 4, 4, 12, 3, 5, 6, 1, 0, 4, 0, 0, 3, 1, 6, 2, 1, 3, 0, 4, 3})
	f.Add([]byte{3, 3, 5, 1, 0, 5, 2, 4, 5, 3, 0, 5, 4, 8, 4, 2, 0, 5, 0, 4, 6, 5, 0, 7, 5, 12, 8, 3, 0, 3, 0, 5, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGatherCase(data)
		got, want, _ := g.run(t)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("gather diverged from the full sort\nquery %q k=%d\ngot:  %v\nwant: %v", g.entity, g.k, got, want)
		}
	})
}

// TestBoundedGatherPrunes pins what the floor buys: with the home shard
// owning the answer and cold shards whose every entry lies below the home's
// k-th degree, the cold shards return nothing, the home at most k+1, and each
// shard is asked once — while the answer stays the full sort's.
func TestBoundedGatherPrunes(t *testing.T) {
	const n, k, cold = 4, 3, 40
	sm := DefaultSlotMap(n)
	c := &Cluster{ord: map[string]int{}}
	shards := make([]*modelShard, n)
	for i := range shards {
		shards[i] = &modelShard{}
		c.shards = append(c.shards, shards[i])
	}
	c.slots.Store(sm)
	var hot []string
	for j := 0; len(hot) < k+2; j++ {
		if name := fmt.Sprintf("hot%02d", j); sm.Owner(name) == 0 {
			hot = append(hot, name)
			c.ord[name] = len(c.ord)
			shards[0].list = append(shards[0].list, entry{m: digitaltraces.Match{Entity: name, Degree: 1 - float64(len(hot))/100}, rank: uint32(c.ord[name])})
		}
	}
	for j := 0; j < cold*n; j++ {
		name := fmt.Sprintf("c%03d", j)
		if o := sm.Owner(name); o != 0 {
			c.ord[name] = len(c.ord)
			shards[o].list = append(shards[o].list, entry{m: digitaltraces.Match{Entity: name, Degree: 0.1 - float64(j)/10000}, rank: uint32(c.ord[name])})
		}
	}
	got, qs, err := c.TopK(hot[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{hot[1], hot[2], hot[3]}; len(got) != k || got[0].Entity != want[0] || got[1].Entity != want[1] || got[2].Entity != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
	if qs.Pulled != k+1 {
		t.Errorf("the shards returned %d matches, want the home's k+1 = %d and nothing from the cold shards", qs.Pulled, k+1)
	}
	for i, s := range shards {
		if s.calls != 1 {
			t.Errorf("shard %d asked %d times", i, s.calls)
		}
	}
}

// TestBoundedGatherPullError: a shard's failed call fails the query, named
// by its shard.
func TestBoundedGatherPullError(t *testing.T) {
	g := decodeGatherCase([]byte{3, 2, 7, 1, 0, 6, 2, 0, 5, 3, 0, 4, 4, 0})
	g.shards[1].err = errors.New("shard down")
	if _, _, err := g.c.TopKByExample(nil, 3); err == nil || err.Error() != "shard 1: shard down" {
		t.Fatalf("err = %v, want shard 1: shard down", err)
	}
}
