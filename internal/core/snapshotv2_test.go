package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"digitaltraces/internal/trace"
)

// TestSnapshotV2RoundTrip: WriteSnapshot + ReadSnapshotWith reproduces an
// identical index and surfaces the meta, names and folded counts.
func TestSnapshotV2RoundTrip(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 29, 40, 16)
	meta := SnapshotMeta{TimeUnit: time.Hour, EpochNanos: 123456789, MeasureU: 2, MeasureV: 3}
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, meta, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), uint32(e)
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	var seen []SnapshotEntity
	loaded, info, err := ReadSnapshotWith(bytes.NewReader(buf.Bytes()), ix, st, func(se SnapshotEntity) (trace.EntityID, bool, error) {
		seen = append(seen, se)
		return se.ID, true, nil
	})
	if err != nil {
		t.Fatalf("ReadSnapshotWith: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded tree invalid: %v", err)
	}
	if got, want := loaded.Stats(), tree.Stats(); got != want {
		t.Errorf("stats diverge: %+v vs %+v", got, want)
	}
	if info.Meta != meta {
		t.Errorf("info = %+v, want meta %+v", info, meta)
	}
	if info.NH != 16 || info.Entities != 40 || info.Skipped != 0 {
		t.Errorf("info scalars = %+v", info)
	}
	if len(seen) != 40 {
		t.Fatalf("resolver saw %d entities, want 40", len(seen))
	}
	for _, se := range seen {
		if se.Name != fmt.Sprintf("e%d", se.ID) || se.Folded != uint32(se.ID) {
			t.Fatalf("resolver saw %+v, want name e%d and folded %d", se, se.ID, se.ID)
		}
	}
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(0); e < 10; e++ {
		a, _, err := tree.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.TopK(st.Get(e), 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d diverges after reload: %v vs %v", e, a, b)
		}
	}
}

// TestSnapshotV2DefaultReaderTrustsIDs: plain ReadSnapshot reads v2 too,
// mapping stored IDs verbatim.
func TestSnapshotV2DefaultReaderTrustsIDs(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 31, 25, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), FoldedUnknown
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatalf("ReadSnapshot(v2): %v", err)
	}
	if loaded.Len() != tree.Len() {
		t.Fatalf("loaded %d entities, want %d", loaded.Len(), tree.Len())
	}
}

// TestSnapshotV2ResolverRemapsAndSkips: the resolver's mapped IDs land in
// the tree, skipped entities stay out and are counted, and a resolver error
// aborts the load verbatim.
func TestSnapshotV2ResolverRemapsAndSkips(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 37, 20, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Minute}, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), 1
	}); err != nil {
		t.Fatal(err)
	}
	// Skip odd entities.
	loaded, info, err := ReadSnapshotWith(bytes.NewReader(buf.Bytes()), ix, st, func(se SnapshotEntity) (trace.EntityID, bool, error) {
		if se.ID%2 == 1 {
			return 0, false, nil
		}
		return se.ID, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 10 || loaded.Len() != 10 {
		t.Fatalf("skipped %d / kept %d, want 10 / 10", info.Skipped, loaded.Len())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("tree with skips invalid: %v", err)
	}
	for e := trace.EntityID(0); e < 20; e++ {
		if got := loaded.Contains(e); got != (e%2 == 0) {
			t.Errorf("Contains(%d) = %t", e, got)
		}
	}

	// Resolver errors abort.
	boom := fmt.Errorf("boom")
	if _, _, err := ReadSnapshotWith(bytes.NewReader(buf.Bytes()), ix, st, func(se SnapshotEntity) (trace.EntityID, bool, error) {
		return 0, false, boom
	}); err != boom {
		t.Fatalf("resolver error not propagated: %v", err)
	}
}

// TestSnapshotLoadTimeSourceValidation: an entity the source has no
// sequences for fails at load time with an error naming it.
func TestSnapshotLoadTimeSourceValidation(t *testing.T) {
	ix, bigStore, tree := buildRandomWorld(t, 41, 30, 8)
	// A store that only knows the first 10 entities.
	small := trace.NewStore(ix)
	for e := trace.EntityID(0); e < 10; e++ {
		small.Put(bigStore.Get(e))
	}

	var v2 bytes.Buffer
	if _, err := tree.WriteSnapshot(&v2, SnapshotMeta{TimeUnit: time.Hour}, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("name-%d", e), FoldedUnknown
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&v2, ix, small); err == nil || !strings.Contains(err.Error(), `"name-10"`) {
		t.Errorf("load against a smaller source did not name the first missing entity: %v", err)
	}
}

// TestSnapshotV2Errors is the per-region error table: truncations at every
// region, bad magic, unknown flag bits, corrupt scalars, and oversized names
// at write time.
func TestSnapshotV2Errors(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 43, 10, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), 1
	}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at every prefix region must error, never panic: inside the
	// magic, the header, an entity record's id/folded/name-length/name/sigs,
	// and just before the end.
	for _, cut := range []int{0, 5, 12, 40, 80, 92, 95, 97, 100, len(good) / 2, len(good) - 3} {
		if cut >= len(good) {
			continue
		}
		if _, err := ReadSnapshot(bytes.NewReader(good[:cut]), ix, st); err == nil {
			t.Errorf("truncated v2 snapshot (%d of %d bytes) accepted", cut, len(good))
		}
	}

	// Bad magic.
	bad := append([]byte("NOTATREE2\n"), good[10:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad), ix, st); err == nil {
		t.Error("bad magic accepted")
	}

	// Unknown flag bits (future format) must be refused, not ignored.
	flagged := append([]byte(nil), good...)
	flagged[10+9*8] |= 0x80 // low byte of the 10th header word (flags)
	if _, err := ReadSnapshot(bytes.NewReader(flagged), ix, st); err == nil || !strings.Contains(err.Error(), "flag") {
		t.Errorf("unknown flag bits accepted: %v", err)
	}

	// Corrupt time unit (zero) must be refused.
	unitless := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		unitless[10+5*8+i] = 0 // 6th header word: time unit
	}
	if _, err := ReadSnapshot(bytes.NewReader(unitless), ix, st); err == nil || !strings.Contains(err.Error(), "time unit") {
		t.Errorf("zero time unit accepted: %v", err)
	}

	// Wrong sp-index height.
	wrongIx, _, _ := fixture411(t) // height 2, snapshot has 3
	if _, err := ReadSnapshot(bytes.NewReader(good), wrongIx, st); err == nil {
		t.Error("mismatched sp-index accepted")
	}

	// Oversized names fail at write time.
	if _, err := tree.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, func(e trace.EntityID) (string, uint32) {
		return strings.Repeat("x", 1<<17), 0
	}); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("oversized name accepted: %v", err)
	}

	// A nil info callback is refused (readers resolve by name).
	if _, err := tree.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, nil); err == nil {
		t.Error("nil info callback accepted")
	}
}

// TestSnapshotV2LoadedTreeStaysMaintainable: a v2-loaded tree accepts
// Remove/Update like a built one.
func TestSnapshotV2LoadedTreeStaysMaintainable(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 47, 15, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), 0
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Remove(3); err != nil {
		t.Fatalf("Remove on v2-loaded tree: %v", err)
	}
	if err := loaded.Update(7); err != nil {
		t.Fatalf("Update on v2-loaded tree: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("Validate after maintenance: %v", err)
	}
}
