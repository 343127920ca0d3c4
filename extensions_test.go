package digitaltraces

import (
	"bytes"
	"testing"
	"time"
)

// TestTopKApprox: epsilon 0 matches the exact TopK; larger epsilons honor
// the reported guarantee.
func TestTopKApprox(t *testing.T) {
	db, err := SyntheticCity(CityConfig{Side: 8, Entities: 60, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := db.TopK("entity-0", 5)
	if err != nil {
		t.Fatal(err)
	}
	approx0, g0, err := db.TopKApprox("entity-0", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0 != 0 {
		t.Errorf("epsilon 0 reported guarantee %v", g0)
	}
	for i := range exact {
		if approx0[i] != exact[i] {
			t.Fatalf("epsilon 0 diverged: %v vs %v", approx0, exact)
		}
	}
	approx, g, err := db.TopKApprox("entity-0", 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g > 0.5+1e-12 {
		t.Errorf("guarantee %v exceeds requested 0.5", g)
	}
	kth := approx[len(approx)-1].Degree
	trueKth := exact[len(exact)-1].Degree
	if kth < (1-g)*trueKth-1e-9 {
		t.Errorf("approximate k-th %v below guarantee (1-%v)·%v", kth, g, trueKth)
	}
	if _, _, err := db.TopKApprox("ghost", 1, 0); err == nil {
		t.Error("unknown entity accepted")
	}
}

// TestSaveIndex: an image is produced, non-trivial, and a fresh DB over the
// same hierarchy serves it with the saver's answers.
func TestSaveIndex(t *testing.T) {
	h := NewHierarchy(2).AddPath("a", "v1").AddPath("a", "v2")
	db, err := NewDB(h, WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("x", "v1", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddVisit("y", "v2", t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := db.SaveIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || buf.Len() == 0 || int64(buf.Len()) != n {
		t.Fatalf("SaveIndex wrote %d bytes, buffer has %d", n, buf.Len())
	}
	fresh, err := NewDB(h, WithEpoch(t0))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.OpenIndexAt(bytes.NewReader(buf.Bytes()), n); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, db, fresh, []string{"x", "y"}, 1)
}
