package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// snapshotNames is the entity info callback the snapshot tests write with.
func snapshotNames(e trace.EntityID) (string, uint32, uint32) {
	return fmt.Sprintf("e%d", e), uint32(e), 1
}

// decodeSnapshot decodes the image r holds, read whole and then at offsets.
func decodeSnapshot(r io.Reader, ix *spindex.Index) (*Snapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sr, err := secfile.NewReader(b)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(sr, ix)
}

// readSnapshot decodes the image r holds and serves it over src.
func readSnapshot(r io.Reader, ix *spindex.Index, src SequenceSource) (*Postings, error) {
	snap, err := decodeSnapshot(r, ix)
	if err != nil {
		return nil, err
	}
	return snap.MappedPostings(ix, src), nil
}

// TestSnapshotRoundTrip: WriteSnapshot + DecodeSnapshot + MappedPostings reproduces
// an identical index: same entities, same size, same query answers and work,
// and still derivable.
func TestSnapshotRoundTrip(t *testing.T) {
	_, st, post := buildRandomPostings(t, 17, 60)
	ix := post.ix
	var buf bytes.Buffer
	n, err := post.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, st, snapshotNames)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := readSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !slices.Equal(loaded.Entities(), post.Entities()) || loaded.MemoryBytes() != post.MemoryBytes() {
		t.Errorf("loaded index differs: %d entities, %d bytes; saved %d, %d", loaded.Len(), loaded.MemoryBytes(), post.Len(), post.MemoryBytes())
	}
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(0); e < 10; e++ {
		a, sa, err := post.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := loaded.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || sa != sb {
			t.Fatalf("query %d diverges after reload: %v vs %v", e, a, b)
		}
	}
	// The loaded index stays maintainable.
	if _, err := loaded.Derive(st, []trace.EntityID{0}); err != nil {
		t.Fatalf("Derive on the loaded index: %v", err)
	}
}

func TestSnapshotErrors(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 19, 10)
	var buf bytes.Buffer
	if _, err := post.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, st, snapshotNames); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Bad magic.
	bad := append([]byte("NOTATREE\n"), good[len(secfile.Magic):]...)
	if _, err := readSnapshot(bytes.NewReader(bad), ix, st); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations must error, not panic, wherever the file is cut.
	cellsEnd := int(sections(t, good)[4].End())
	for _, cut := range []int{0, 5, 12, 40, cellsEnd - 3, len(good) - 3} {
		if _, err := readSnapshot(bytes.NewReader(good[:cut]), ix, st); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", cut)
		}
	}
	// Wrong sp-index height.
	wrongIx, _, _ := fixture411(t) // height 2, snapshot has 3
	if _, err := readSnapshot(bytes.NewReader(good), wrongIx, st); err == nil {
		t.Error("mismatched sp-index accepted")
	}
}

// TestLeafOrderedEntities: the leaf order covers every entity exactly once
// and groups leaf members contiguously.
func TestLeafOrderedEntities(t *testing.T) {
	_, _, tree := buildRandomWorld(t, 43, 40, 8)
	order := tree.LeafOrderedEntities()
	if len(order) != 40 {
		t.Fatalf("order has %d entities, want 40", len(order))
	}
	seen := map[trace.EntityID]bool{}
	for _, e := range order {
		if seen[e] {
			t.Fatalf("entity %d repeated in leaf order", e)
		}
		seen[e] = true
	}
	pos, n := map[trace.EntityID]int{}, 0 // each entity's leaf, numbered in depth-first order
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.level == tree.m {
			n++
			for _, e := range nd.entities {
				pos[e] = n
			}
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(tree.root)
	for i := 1; i < len(order); i++ {
		if pos[order[i]] < pos[order[i-1]] {
			t.Fatal("leaf order not monotone in leaf position")
		}
	}
}
