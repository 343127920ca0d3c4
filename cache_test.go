package digitaltraces

// Correctness tests for the generation-keyed query cache: a cached DB must
// be observationally identical to an uncached one — same answers, always
// fresh — with the cache visible only through QueryStats.CacheHit and the
// IndexStats counters. Run under -race the concurrent test also proves the
// ingest/query/cache interleavings.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// cachePair builds a cached DB and an uncached control, fed identically.
func cachePair(t *testing.T, capacity int, visits []VisitRecord) (cached, control *DB) {
	t.Helper()
	var err error
	if cached, err = NewGridDB(4, 3, WithQueryCache(capacity)); err != nil {
		t.Fatal(err)
	}
	if control, err = NewGridDB(4, 3); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{cached, control} {
		if _, err := db.AddVisits(visits); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	return cached, control
}

func overlapVisits() []VisitRecord {
	var vs []VisitRecord
	for i, e := range []string{"a", "b", "c", "d"} {
		// Everyone shares venue-0 at hour 0; each entity then diverges, so
		// degrees against "a" are distinct and nonzero.
		vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(1)})
		for h := 1; h <= i; h++ {
			vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(0), Start: TimeAt(h), End: TimeAt(h + 1)})
		}
		vs = append(vs, VisitRecord{Entity: e, Venue: VenueName(i + 1), Start: TimeAt(8), End: TimeAt(9)})
	}
	return vs
}

// TestCacheHitServesExactAnswer: the second identical query is a hit and
// returns the identical answer; ingest that dirties the data invalidates it
// (generation bump), and post-ingest answers match an uncached control.
func TestCacheHitServesExactAnswer(t *testing.T) {
	cached, control := cachePair(t, 8, overlapVisits())

	first, qs1, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, qs2, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !qs2.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit changed the answer: %v vs %v", first, second)
	}
	want, _, err := control.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("cached answer %v != control %v", second, want)
	}

	// Ingest that changes the answer: "d" now shadows "a" closely. The old
	// entry must become unreachable via the generation bump — no explicit
	// invalidation exists to get wrong.
	boost := []VisitRecord{
		{Entity: "d", Venue: VenueName(1), Start: TimeAt(1), End: TimeAt(4)},
		{Entity: "a", Venue: VenueName(1), Start: TimeAt(1), End: TimeAt(4)},
	}
	for _, db := range []*DB{cached, control} {
		if _, err := db.AddVisits(boost); err != nil {
			t.Fatal(err)
		}
	}
	after, qs3, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs3.CacheHit {
		t.Fatal("query after ingest served from the stale generation")
	}
	want, _, err = control.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("post-ingest cached answer %v != control %v", after, want)
	}
	if reflect.DeepEqual(after, first) {
		t.Fatal("boost did not change the answer — invalidation untested")
	}
}

// TestCacheDistinctKeys: different k, different entity, and by-example
// queries occupy distinct entries — a hit never crosses queries.
func TestCacheDistinctKeys(t *testing.T) {
	cached, control := cachePair(t, 32, overlapVisits())
	type q struct {
		run  func(*DB) ([]Match, QueryStats, error)
		name string
	}
	ex := []Visit{{Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(2)}}
	queries := []q{
		{name: "a/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("a", 2) }},
		{name: "a/3", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("a", 3) }},
		{name: "b/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopK("b", 2) }},
		{name: "ex/2", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopKByExample(ex, 2) }},
		{name: "ex/3", run: func(db *DB) ([]Match, QueryStats, error) { return db.TopKByExample(ex, 3) }},
	}
	// Two passes: first fills, second must hit — and both passes must match
	// the control exactly, proving no entry bled into another key.
	for pass := 0; pass < 2; pass++ {
		for _, query := range queries {
			got, qs, err := query.run(cached)
			if err != nil {
				t.Fatal(err)
			}
			if hit := pass == 1; qs.CacheHit != hit {
				t.Fatalf("pass %d %s: CacheHit = %v, want %v", pass, query.name, qs.CacheHit, hit)
			}
			want, _, err := query.run(control)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d %s: %v != control %v", pass, query.name, got, want)
			}
		}
	}
}

// TestCacheExampleDiscretizationSharing: two by-example queries whose raw
// visits differ but discretize to the same ST-cells are the same query and
// share one entry.
func TestCacheExampleDiscretizationSharing(t *testing.T) {
	cached, _ := cachePair(t, 8, overlapVisits())
	a := []Visit{{Venue: VenueName(0), Start: TimeAt(0), End: TimeAt(1)}}
	// Same venue, same hour cell — offset by minutes inside it.
	b := []Visit{{Venue: VenueName(0), Start: TimeAt(0).Add(10 * time.Minute), End: TimeAt(0).Add(50 * time.Minute)}}

	first, qs, err := cached.TopKByExample(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first example query hit")
	}
	second, qs, err := cached.TopKByExample(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Fatal("equal-after-discretization example missed the cache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("shared entry served different answers: %v vs %v", first, second)
	}
}

// TestCacheEvictionRespectsCapacity: a capacity-2 cache holds at most two
// entries, displaces FIFO, and counts the displacements.
func TestCacheEvictionRespectsCapacity(t *testing.T) {
	cached, _ := cachePair(t, 2, overlapVisits())
	for _, e := range []string{"a", "b", "c"} {
		if _, _, err := cached.TopK(e, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := cached.IndexStats()
	if st.CacheEntries > 2 {
		t.Fatalf("CacheEntries = %d > capacity 2", st.CacheEntries)
	}
	if st.CacheEvictions != 1 {
		t.Fatalf("CacheEvictions = %d, want 1", st.CacheEvictions)
	}
	// "a" was displaced: repeating it misses; "c" is resident: it hits.
	if _, qs, err := cached.TopK("a", 2); err != nil || qs.CacheHit {
		t.Fatalf("displaced query: err=%v hit=%v, want miss", err, qs.CacheHit)
	}
	if _, qs, err := cached.TopK("c", 2); err != nil || !qs.CacheHit {
		t.Fatalf("resident query: err=%v hit=%v, want hit", err, qs.CacheHit)
	}
	if st := cached.IndexStats(); st.CacheHits < 1 || st.CacheMisses < 4 {
		t.Fatalf("counters = %+v, want ≥1 hit and ≥4 misses", st)
	}
}

// TestCacheConcurrentIngestNeverStale is the -race stress: a writer
// alternates ingest (boosting "w" against "a") with an immediate exact
// assertion against an uncached control, while readers hammer the same
// queries to maximize cache/ingest interleavings. The writer's asserts catch
// any stale-generation service; the race detector catches unsound locking.
func TestCacheConcurrentIngestNeverStale(t *testing.T) {
	seed := overlapVisits()
	seed = append(seed, VisitRecord{Entity: "w", Venue: VenueName(9), Start: TimeAt(20), End: TimeAt(21)})
	cached, control := cachePair(t, 16, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				entity := []string{"a", "b", "w"}[i%3]
				if _, _, err := cached.TopK(entity, 3); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	for round := 0; round < 30; round++ {
		add := []VisitRecord{{
			Entity: "w",
			Venue:  VenueName(0),
			Start:  TimeAt(round % 8),
			End:    TimeAt(round%8 + 1),
		}}
		if _, err := cached.AddVisits(add); err != nil {
			t.Fatal(err)
		}
		if _, err := control.AddVisits(add); err != nil {
			t.Fatal(err)
		}
		// Read-your-writes: AddVisits published the fold before it returned,
		// so the very next query must see it, cache or no cache.
		got, _, err := cached.TopK("a", 4)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := control.TopK("a", 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cached %v != control %v — stale answer served", round, got, want)
		}
	}
	close(stop)
	wg.Wait()

	// With ingest quiesced, the cache must function again: prime, then hit.
	if _, _, err := cached.TopK("b", 3); err != nil {
		t.Fatal(err)
	}
	if _, qs, err := cached.TopK("b", 3); err != nil || !qs.CacheHit {
		t.Fatalf("post-stress repeat query: err=%v hit=%v, want hit", err, qs.CacheHit)
	}
}

// TestCacheResultIsolation: mutating a returned slice must not corrupt the
// cached copy (both hit and miss paths hand out private slices).
func TestCacheResultIsolation(t *testing.T) {
	cached, _ := cachePair(t, 8, overlapVisits())
	first, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	clobber := func(ms []Match) {
		for i := range ms {
			ms[i] = Match{Entity: fmt.Sprintf("junk%d", i), Degree: -1}
		}
	}
	pristine := append([]Match(nil), first...)
	clobber(first) // miss-path result
	second, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, pristine) {
		t.Fatalf("clobbering the miss result corrupted the cache: %v", second)
	}
	clobber(second) // hit-path result
	third, _, err := cached.TopK("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third, pristine) {
		t.Fatalf("clobbering a hit result corrupted the cache: %v", third)
	}
}

// TestCacheRevalidationReplay is the revalidation property test: a cached DB
// and an uncached twin take the same write batches, interleaved with queries,
// and every cached answer must equal the twin's bit for bit. The batches
// cover each case the revalidation rule separates: a write to the query
// entity, to an answer member, to a new entity, to an outside entity boosted
// above the k-th degree, and to one boosted to tie it exactly with a smaller
// ID; queries with k at least the population (zero-degree fills); an entry
// staler than the dirty log reaches; and a BuildIndex and an OpenIndexAt in
// between. It also requires that both verdicts occur, so the property is
// never met vacuously by a cache that always misses.
func TestCacheRevalidationReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const hours, population, pairs = 48, 30, 4
	venues := 0
	visit := func(e string) VisitRecord {
		h := rng.Intn(hours - 2)
		return VisitRecord{Entity: e, Venue: VenueName(rng.Intn(venues)), Start: TimeAt(h), End: TimeAt(h + 1 + rng.Intn(2))}
	}
	grid, err := NewGridDB(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	venues = grid.NumVenues()

	// Tie pairs, registered around the population: tie-low-i first (the
	// smallest IDs) with one visit only its partner shares, so degree 0
	// against every query, and tie-high-i last with that visit plus a copy
	// of e-i's first visits. A batch that adds the copy to tie-low-i gives it
	// tie-high-i's exact sequences, hence its degree against any query, under
	// a smaller ID. Random batches never touch a tie pair.
	var setup []VisitRecord
	lone := func(e string, i int) VisitRecord {
		return VisitRecord{Entity: e, Venue: VenueName(i), Start: TimeAt(1000 + 10*i), End: TimeAt(1001 + 10*i)}
	}
	for i := range pairs {
		setup = append(setup, lone(fmt.Sprintf("tie-low-%d", i), i))
	}
	names := make([]string, population)
	for i := range names {
		names[i] = fmt.Sprintf("e-%d", i)
		for range 6 {
			setup = append(setup, visit(names[i]))
		}
	}
	tieCopy := make([][]VisitRecord, pairs)
	for i := range pairs {
		for _, v := range setup {
			if v.Entity == names[i] && len(tieCopy[i]) < 3 {
				tieCopy[i] = append(tieCopy[i], VisitRecord{Entity: fmt.Sprintf("tie-low-%d", i), Venue: v.Venue, Start: v.Start, End: v.End})
			}
		}
		high := fmt.Sprintf("tie-high-%d", i)
		setup = append(setup, lone(high, i))
		for _, v := range tieCopy[i] {
			setup = append(setup, VisitRecord{Entity: high, Venue: v.Venue, Start: v.Start, End: v.End})
		}
	}
	cached, twin := cachePair(t, 256, setup)

	type query struct {
		entity string // "" for the example
		k      int
	}
	example := []Visit{{Venue: VenueName(0), Start: TimeAt(3), End: TimeAt(9)}}
	run := func(db *DB, q query) ([]Match, QueryStats) {
		t.Helper()
		var (
			out []Match
			qs  QueryStats
			err error
		)
		if q.entity == "" {
			out, qs, err = db.TopKByExample(example, q.k)
		} else {
			out, qs, err = db.TopK(q.entity, q.k)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, qs
	}
	var answers [][]Match // recent cached answers, for batches aimed at their members
	check := func(step string, q query) ([]Match, bool) {
		t.Helper()
		got, qs := run(cached, q)
		want, _ := run(twin, q)
		if len(got) != len(want) {
			t.Fatalf("%s: query %+v: cached %v != twin %v", step, q, got, want)
		}
		for i := range got {
			if got[i].Entity != want[i].Entity || math.Float64bits(got[i].Degree) != math.Float64bits(want[i].Degree) {
				t.Fatalf("%s: query %+v (hit %v): cached %v != twin %v", step, q, qs.CacheHit, got, want)
			}
		}
		answers = append(answers[max(0, len(answers)-15):], got)
		return got, qs.CacheHit
	}
	apply := func(batch []VisitRecord) {
		t.Helper()
		for _, db := range []*DB{cached, twin} {
			if _, err := db.AddVisits(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	random := func() string { return names[rng.Intn(len(names))] }
	hot := func() query {
		switch r := rng.Intn(10); {
		case r == 0:
			return query{"", 4}
		case r == 1:
			return query{names[rng.Intn(4)], 200} // k above the population: zero-degree fills
		default:
			return query{names[rng.Intn(6)], 2 + rng.Intn(3)}
		}
	}
	newEntities := 0

	// tie caches e-i's answer cut at tie-high-i, then makes tie-low-i tie it.
	tie := func(i int) {
		t.Helper()
		full, _ := run(twin, query{names[i], 200})
		high := slices.IndexFunc(full, func(m Match) bool { return m.Entity == fmt.Sprintf("tie-high-%d", i) })
		low := slices.IndexFunc(full, func(m Match) bool { return m.Entity == fmt.Sprintf("tie-low-%d", i) })
		if high < 0 || low < high || full[high].Degree == 0 {
			t.Fatalf("tie %d: tie-high at %d, tie-low at %d in %v", i, high, low, full)
		}
		q := query{names[i], high + 1}
		before, _ := check("tie prime", q)
		apply(tieCopy[i])
		after, _ := check("tie", q)
		if after[high].Entity != fmt.Sprintf("tie-low-%d", i) || reflect.DeepEqual(before, after) {
			t.Fatalf("tie %d: answer %v -> %v, want tie-low-%d to take the k-th place", i, before, after, i)
		}
	}

	for round := range 120 {
		for range 6 {
			check(fmt.Sprintf("round %d", round), hot())
		}
		var batch []VisitRecord
		switch round % 6 {
		case 0: // unrelated entities
			for range 1 + rng.Intn(3) {
				batch = append(batch, visit(random()))
			}
		case 1: // a query entity
			batch = append(batch, visit(names[rng.Intn(6)]))
		case 2: // an answer member
			a := answers[rng.Intn(len(answers))]
			if m := a[rng.Intn(len(a))].Entity; strings.HasPrefix(m, "e-") || strings.HasPrefix(m, "new-") {
				batch = append(batch, visit(m))
			} else {
				batch = append(batch, visit(random()))
			}
		case 3: // a new entity
			newEntities++
			batch = append(batch, visit(fmt.Sprintf("new-%d", newEntities)))
		case 4: // an outside entity boosted toward a hot query entity
			vs, err := twin.VisitsOf(names[rng.Intn(6)])
			if err != nil {
				t.Fatal(err)
			}
			e := random()
			for _, v := range vs[:min(len(vs), 1+rng.Intn(4))] {
				batch = append(batch, VisitRecord{Entity: e, Venue: v.Venue, Start: v.Start, End: v.End})
			}
		case 5:
			if i := round / 6; i < pairs {
				tie(i)
				continue
			}
			batch = append(batch, visit(random()))
		}
		apply(batch)
	}

	// An entry staler than the dirty log reaches misses.
	stale := []query{{names[0], 3}, {names[1], 3}, {"", 4}}
	for _, q := range stale {
		check("pre-gap", q)
	}
	for range dirtyLogLen + 1 {
		apply([]VisitRecord{visit(names[len(names)-1])})
	}
	for _, q := range stale {
		if _, hit := check("post-gap", q); hit {
			t.Fatalf("query %+v hit across %d publishes, more than the dirty log keeps", q, dirtyLogLen+1)
		}
	}

	// A BuildIndex and an open start an empty log: nothing cached before
	// either is revalidated across it.
	reopen := func() {
		var buf bytes.Buffer
		if _, err := cached.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		if err := cached.OpenIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
			t.Fatal(err)
		}
	}
	rebuild := func() {
		if err := cached.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []struct {
		step    string
		publish func()
	}{{"BuildIndex", rebuild}, {"OpenIndexAt", reopen}} {
		step, publish := p.step, p.publish
		for _, q := range stale {
			check("pre-"+step, q)
		}
		publish()
		for _, q := range stale {
			if _, hit := check("post-"+step, q); hit {
				t.Fatalf("query %+v hit across %s", q, step)
			}
		}
		for range 3 {
			apply([]VisitRecord{visit(random())})
			for range 6 {
				check("after "+step, hot())
			}
		}
	}

	if st := cached.IndexStats(); st.CacheRevalidated == 0 || st.CacheInvalidated == 0 {
		t.Fatalf("revalidated %d, invalidated %d: both verdicts must occur", st.CacheRevalidated, st.CacheInvalidated)
	}
}
