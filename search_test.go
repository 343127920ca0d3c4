package digitaltraces

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRankFloored: over random (want, floor, filter) and both query shapes, a
// Rank reply is exactly TopKByExample's full order restricted to the admitted
// entities at or above the floor, cut at want — also where the cut falls
// inside a tie. Capped says whether want came back, Bound is at least every
// admitted degree left out, and a query by name excludes the entity and
// returns its visits.
func TestRankFloored(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 60, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Clones of a third of the entities: exact degree ties for the cap to
	// fall inside.
	for i := 0; i < 20; i++ {
		visits, err := db.VisitsOf(fmt.Sprintf("entity-%d", 3*i))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range visits {
			if err := db.AddVisit(fmt.Sprintf("clone-%d", i), v.Venue, v.Start, v.End); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	n := db.NumEntities()
	rng := rand.New(rand.NewSource(1))
	cut, tied := 0, 0 // trials a floor ended early; trials cut inside a tie
	for trial := 0; trial < 200; trial++ {
		q := fmt.Sprintf("entity-%d", rng.Intn(60))
		visits, err := db.VisitsOf(q)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := db.TopKByExample(visits, n)
		if err != nil || len(full) != n {
			t.Fatalf("%s: TopKByExample ranked %d of %d entities, err %v", q, len(full), n, err)
		}
		rq := RankQuery{Visits: visits, Want: 1 + rng.Intn(8)}
		if rng.Intn(10) == 0 {
			rq.Want = n
		}
		if rng.Intn(3) == 0 {
			rq.Floor = full[rng.Intn(len(full))].Degree
		}
		if mod := 1 + rng.Intn(3); mod > 1 {
			rq.Keep = func(e string) bool { return len(e)%mod != 0 }
		}
		if rng.Intn(2) == 0 {
			rq.Entity, rq.Visits = q, nil
		}
		var admitted []Match
		for _, m := range full {
			if (rq.Keep == nil || rq.Keep(m.Entity)) && (rq.Entity == "" || m.Entity != q) {
				admitted = append(admitted, m)
			}
		}
		var expect, left []Match
		for _, m := range admitted {
			if m.Degree >= rq.Floor && len(expect) < rq.Want {
				expect = append(expect, m)
			} else {
				left = append(left, m)
			}
		}
		got, err := db.Rank(rq)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s %+v", q, rq)
		if !reflect.DeepEqual(got.Matches, expect) && (len(got.Matches) > 0 || len(expect) > 0) {
			t.Fatalf("%s: ranked %v, want %v", label, got.Matches, expect)
		}
		if got.Capped != (len(expect) >= rq.Want) {
			t.Fatalf("%s: %d matches with Capped %t", label, len(expect), got.Capped)
		}
		for _, m := range left {
			if m.Degree > got.Bound {
				t.Fatalf("%s: left out %v above Bound %v", label, m, got.Bound)
			}
		}
		if (rq.Entity != "") != reflect.DeepEqual(got.Visits, visits) {
			t.Fatalf("%s: returned visits %v", label, got.Visits)
		}
		if len(expect) < len(admitted) && rq.Floor > 0 && len(expect) < rq.Want {
			cut++
		}
		if len(expect) == rq.Want && len(left) > 0 && left[0].Degree == expect[rq.Want-1].Degree && left[0].Degree > 0 {
			tied++
		}
	}
	if cut == 0 || tied == 0 {
		t.Fatalf("%d of 200 replies ended at their floor and %d were cut inside a tie; the schedule must exercise both", cut, tied)
	}
	if _, err := db.Rank(RankQuery{Entity: "entity-0", Want: 0}); err == nil {
		t.Fatal("want 0 accepted")
	}
	if _, err := db.Rank(RankQuery{Entity: "nobody", Want: 3}); err == nil {
		t.Fatal("an unknown entity ranked")
	}
}
