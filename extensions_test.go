package digitaltraces

import (
	"bytes"
	"testing"
	"time"
)

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
	if err := fresh.OpenImage(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, db, fresh, []string{"x", "y"}, 1)
}
