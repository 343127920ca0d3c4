package digitaltraces

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSearchPull: over random batch sizes and non-decreasing floors, a
// Search's pulled batches concatenate to a prefix of TopK's order, and once
// the search ends nothing it left out reaches the last floor. Every match is
// at least its pull's floor, a short batch is never Live, each Bound is at
// least every later match, and a second Close is a no-op.
func TestSearchPull(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 4, Entities: 60, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	n := db.NumEntities()
	rng := rand.New(rand.NewSource(1))
	cut := 0 // trials whose floor ended the search before the full order
	for trial := 0; trial < 200; trial++ {
		q := fmt.Sprintf("entity-%d", rng.Intn(n))
		visits, err := db.VisitsOf(q)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := db.TopKByExample(visits, n)
		if err != nil || len(full) != n {
			t.Fatalf("%s: TopKByExample ranked %d of %d entities, err %v", q, len(full), n, err)
		}
		s, err := db.SearchByExample(visits)
		if err != nil {
			t.Fatal(err)
		}
		var (
			got    []Match
			bounds []float64 // bounds[i]: pull i's Bound, which got[ends[i]:] must respect
			ends   []int
			floor  float64
		)
		for live := true; live; {
			want := 1 + rng.Intn(8)
			if rng.Intn(10) == 0 {
				want = n
			}
			if rng.Intn(3) == 0 {
				floor = max(floor, full[rng.Intn(len(full))].Degree)
			}
			b, err := s.Pull(want, floor)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range b.Matches {
				if m.Degree < floor {
					t.Fatalf("%s: match %v below its pull's floor %v", q, m, floor)
				}
			}
			if len(b.Matches) < want && b.Live {
				t.Fatalf("%s: a short batch (%d of %d) is Live", q, len(b.Matches), want)
			}
			got = append(got, b.Matches...)
			bounds, ends = append(bounds, b.Bound), append(ends, len(got))
			live = b.Live
		}
		if len(got) > len(full) || !reflect.DeepEqual(got, full[:len(got)]) {
			t.Fatalf("%s: pulled %v, not a prefix of TopK's %v", q, got, full)
		}
		for _, m := range full[len(got):] {
			if m.Degree >= floor {
				t.Fatalf("%s: the ended search left out %v, at or above the last floor %v", q, m, floor)
			}
		}
		for i, b := range bounds {
			for _, m := range got[ends[i]:] {
				if m.Degree > b {
					t.Fatalf("%s: pull %d bounded what follows by %v, but %v followed", q, i, b, m)
				}
			}
		}
		if len(got) < len(full) {
			cut++
		}
		checked := s.Checked()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil || s.Checked() != checked {
			t.Fatalf("%s: second Close: err %v, checked %d → %d", q, err, checked, s.Checked())
		}
	}
	if cut == 0 || cut == 200 {
		t.Fatalf("%d of 200 searches ended before the full order; the floor schedule must exercise both", cut)
	}
}
