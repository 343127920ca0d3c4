package shard

// Fuzz target for the threshold-pruned merge/termination logic.
//
// FuzzBoundedGather decodes arbitrary bytes into per-shard candidate lists
// (coarse degrees to force ties, colliding ordinals to force name
// tie-breaks, an optional excluded entity, and per-stream bound slack) and
// drives boundedGather over simulated streams that serve prefixes of those
// lists with admissible bounds and honour each pull's floor: nothing below
// it is served, and a stream whose bound drops below it ends. Some cases
// start from a pre-filled first round shaped like the cluster's fused opens:
// stream 0 pulled k+1 at floor 0, every other stream pulled at the k-th
// degree of that batch. The invariant is the acceptance property in
// miniature: the pruned gather must return exactly what mergeEntries over
// the FULL lists returns — it never surfaces a result a full merge wouldn't,
// never drops or reorders one, for any list shape the decoder can produce.
//
// Run the smoke in CI with:
//
//	go test -run=^$ -fuzz=FuzzBoundedGather -fuzztime=10s ./shard/
//
// The seed corpus lives in testdata/fuzz/FuzzBoundedGather plus the f.Add
// seeds below.

import (
	"fmt"
	"reflect"
	"testing"

	"digitaltraces"
	"digitaltraces/internal/obs"
	"sort"
)

// gatherCase is a decoded fuzz input: full per-shard lists in shard-exact
// order, the query k, the excluded entity, per-stream bound slack, and
// per-stream looseness (a migration-touched shard: degree order only, ties
// in arbitrary — not global — order, no k+1 cap).
type gatherCase struct {
	lists     [][]entry
	k         int
	exclude   string
	slack     []float64
	loose     []bool
	firstWant int // > 0: pre-fill the first round, the other streams pulling this many
}

// decodeGatherCase maps fuzz bytes onto a gather case. Every byte string
// decodes to something valid; short inputs produce small cases.
func decodeGatherCase(data []byte) gatherCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	g := gatherCase{
		k: 1 + int(next())%12,
	}
	n := 1 + int(next())%6
	g.lists = make([][]entry, n)
	g.slack = make([]float64, n)
	g.loose = make([]bool, n)
	for i := 0; i < n; i++ {
		m := int(next()) % 10
		// Slack in {0, 0.15, 0.3, 0.45}: bounds stay admissible (they only
		// ever overestimate), exercising termination under loose bounds.
		g.slack[i] = float64(int(next())%4) * 0.15
		g.loose[i] = next()%4 == 0
		for j := 0; j < m; j++ {
			g.lists[i] = append(g.lists[i], entry{
				m: digitaltraces.Match{
					// Unique names across all streams (entities live on
					// exactly one shard); coarse degree grid forces ties.
					Entity: fmt.Sprintf("s%de%d", i, j),
					Degree: float64(int(next())%8) / 7,
				},
				// Colliding ordinals are allowed: entryBefore falls back to
				// the name, and the invariant must hold under that too.
				rank: int(next()) % 32,
			})
		}
		if g.loose[i] {
			// A touched shard still emits in exact degree order, but its tie
			// order is its own (migration reassigned local IDs) — keep the
			// decode order within equal degrees, which entryBefore wouldn't.
			sort.SliceStable(g.lists[i], func(a, b int) bool {
				return g.lists[i][a].m.Degree > g.lists[i][b].m.Degree
			})
		} else {
			// Streams emit in shard-exact order.
			sort.SliceStable(g.lists[i], func(a, b int) bool {
				return entryBefore(g.lists[i][a], g.lists[i][b])
			})
		}
	}
	// Sometimes exclude an entity that exists, sometimes one that doesn't.
	switch next() % 4 {
	case 0:
		s := int(next()) % n
		if len(g.lists[s]) > 0 {
			g.exclude = g.lists[s][int(next())%len(g.lists[s])].m.Entity
		}
	case 1:
		g.exclude = "absent"
	}
	if b := next(); b%2 == 1 {
		g.firstWant = 1 + int(b/2)%(g.k+1)
	}
	return g
}

// runBoundedGather drives boundedGather over simulated prefix streams with
// exact-plus-slack bounds, also returning the deepest prefix pulled per
// stream so tests can assert the pruning actually prunes.
func runBoundedGather(t *testing.T, g gatherCase) ([]digitaltraces.Match, []int) {
	t.Helper()
	pos := make([]int, len(g.lists))
	floors := make([]float64, len(g.lists))
	// serve is one simulated Stream.Pull: the next matches at or above the
	// floor, up to want; live while the bound after them reaches the floor.
	serve := func(i, want int, floor float64) pullResp {
		if want < 1 {
			t.Fatalf("pull requested want=%d", want)
		}
		if floor < floors[i] {
			t.Fatalf("stream %d: floor fell from %v to %v", i, floors[i], floor)
		}
		floors[i] = floor
		l, p := g.lists[i], pos[i]
		var es []entry
		for len(es) < want && p < len(l) && l[p].m.Degree >= floor {
			es = append(es, l[p])
			p++
		}
		pos[i] = p
		r := pullResp{entries: es, raw: len(es), floor: floor}
		switch {
		case p == len(l): // exhausted: bound 0
		case len(es) < want: // stopped by the floor: the exact bound is below it
			r.bound = l[p].m.Degree
		default: // admissible bound on the remainder: the next degree plus slack
			r.bound = l[p].m.Degree + g.slack[i]
			r.live = r.bound >= floor
		}
		return r
	}
	var first []pullResp
	if g.firstWant > 0 {
		// The cluster's fused opens: stream 0 is the home shard, pulled k+1
		// at floor 0; its k-th match other than the excluded entity is the
		// floor every sibling opens at.
		first = make([]pullResp, len(g.lists))
		first[0] = serve(0, g.k+1, 0)
		floor, n := 0.0, 0
		for _, e := range first[0].entries {
			if e.m.Entity != g.exclude {
				if n++; n == g.k {
					floor = e.m.Degree
				}
			}
		}
		for i := 1; i < len(g.lists); i++ {
			first[i] = serve(i, g.firstWant, floor)
		}
	}
	pull := func(reqs []pullReq) ([]pullResp, error) {
		resps := make([]pullResp, len(reqs))
		for j, r := range reqs {
			resps[j] = serve(r.stream, r.want, r.floor)
		}
		return resps, nil
	}
	rows := make([]obs.ShardTrace, len(g.lists))
	got, _, _, err := boundedGather(rows, g.k, g.exclude, g.loose, first, pull)
	if err != nil {
		t.Fatalf("boundedGather: %v", err)
	}
	// The rows' per-stream pulled counts must agree with the simulated
	// stream positions — the consistency the /traces endpoint exposes.
	for i := range g.lists {
		if rows[i].Pulled != pos[i] {
			t.Fatalf("stream %d row pulled %d, stream served %d", i, rows[i].Pulled, pos[i])
		}
		if rows[i].Cut == rows[i].Exhausted {
			t.Fatalf("stream %d: cut=%v exhausted=%v — exactly one must hold after a bounded gather",
				i, rows[i].Cut, rows[i].Exhausted)
		}
	}
	return got, pos
}

func FuzzBoundedGather(f *testing.F) {
	// Seeds that reach the interesting regimes: empty case, single stream,
	// many tied degrees, exclusion hits, zero-degree plateaus, large k.
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 0, 7, 1, 7, 2, 6, 3, 4, 0, 5, 1, 5, 2, 3, 3, 0, 0})
	f.Add([]byte{0, 3, 2, 1, 0, 0, 0, 1, 5, 2, 7, 0, 7, 0, 7, 0, 4, 1, 0, 2, 1})
	f.Add([]byte{11, 4, 9, 3, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 9, 0, 7, 7, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 1})
	// Pre-filled first rounds (the last byte odd): a home stream owning
	// most of the answer, and siblings tied at the home floor.
	f.Add([]byte{2, 2, 6, 0, 0, 7, 1, 6, 2, 5, 3, 4, 4, 3, 5, 6, 1, 0, 4, 0, 0, 3, 1, 6, 2, 1, 3, 0, 4, 3})
	f.Add([]byte{3, 3, 4, 1, 0, 5, 1, 5, 2, 5, 3, 5, 4, 4, 2, 0, 5, 0, 6, 5, 7, 5, 8, 3, 3, 0, 5, 0, 9, 5, 10, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGatherCase(data)
		got, _ := runBoundedGather(t, g)
		// The oracle merges each stream's full list in global order: for a
		// loose stream the gather promises the answer *as if* the list were
		// globally sorted (that is exactly the repair the buffer re-sort
		// performs), while an aligned stream's list already is.
		wantLists := make([][]entry, len(g.lists))
		for i, l := range g.lists {
			wantLists[i] = append([]entry(nil), l...)
			if g.loose != nil && g.loose[i] {
				sort.SliceStable(wantLists[i], func(a, b int) bool {
					return entryBefore(wantLists[i][a], wantLists[i][b])
				})
			}
		}
		want, _ := mergeEntries(wantLists, g.k, g.exclude)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pruned gather diverged from full merge\ncase: %+v\ngot:  %v\nwant: %v", g, got, want)
		}
	})
}

// TestBoundedGatherPrunes pins the point of the whole exercise: with one hot
// stream owning the answer and cold streams whose bounds are immediately
// dominated, the cold streams are pulled once (the initial round) and never
// drained — while the answer stays the exact full merge.
func TestBoundedGatherPrunes(t *testing.T) {
	const n, k, cold = 4, 3, 40
	g := gatherCase{k: k, lists: make([][]entry, n), slack: make([]float64, n)}
	for j := 0; j < k+1; j++ {
		g.lists[0] = append(g.lists[0], entry{
			m:    digitaltraces.Match{Entity: fmt.Sprintf("hot%02d", j), Degree: 1 - float64(j)/100},
			rank: j,
		})
	}
	for i := 1; i < n; i++ {
		for j := 0; j < cold; j++ {
			g.lists[i] = append(g.lists[i], entry{
				m:    digitaltraces.Match{Entity: fmt.Sprintf("s%dc%02d", i, j), Degree: 0.1 - float64(j)/1000},
				rank: 100 + i*cold + j,
			})
		}
	}
	got, pos := runBoundedGather(t, g)
	want, _ := mergeEntries(g.lists, g.k, "")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := 1; i < n; i++ {
		if pos[i] >= cold {
			t.Errorf("cold stream %d fully drained (%d entries) — no pruning happened", i, pos[i])
		}
	}
	if pos[0] > k+1 {
		t.Errorf("hot stream pulled %d > k+1 = %d entries", pos[0], k+1)
	}
}

// TestBoundedGatherPullError verifies pull failures surface to the caller.
func TestBoundedGatherPullError(t *testing.T) {
	pull := func([]pullReq) ([]pullResp, error) { return nil, fmt.Errorf("shard down") }
	if _, _, _, err := boundedGather(make([]obs.ShardTrace, 2), 3, "", nil, nil, pull); err == nil || err.Error() != "shard down" {
		t.Fatalf("err = %v, want shard down", err)
	}
}
