package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// writeImage serializes tree with the e<ID> naming, with or without the
// sequence section.
func writeImage(t testing.TB, tree *Tree, seqs SequenceSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, seqs, snapshotNames); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// sections returns an image's section table.
func sections(t testing.TB, img []byte) []secfile.Section {
	t.Helper()
	sr, err := secfile.NewReaderAt(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	return sr.Secs
}

// openMapped decodes img by offset and replays it in place over src.
func openMapped(img []byte, ix *spindex.Index, src SequenceSource) (*Tree, error) {
	sr, err := secfile.NewReaderAt(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(sr, ix)
	if err != nil {
		return nil, err
	}
	return snap.MappedTree(ix, src)
}

// TestSnapshotV2RoundTrip: WriteSnapshot + DecodeSnapshot + Tree reproduces
// an identical index and surfaces the meta, names and folded counts.
func TestSnapshotV2RoundTrip(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 29, 40, 16)
	meta := SnapshotMeta{TimeUnit: time.Hour, EpochNanos: 123456789, MeasureU: 2, MeasureV: 3}
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, meta, nil, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), uint32(e)
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	snap, err := decodeSnapshot(&buf, ix)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	var seen []SnapshotEntity
	loaded, err := snap.Tree(ix, st, func(se SnapshotEntity) (trace.EntityID, bool, error) {
		seen = append(seen, se)
		return se.ID, true, nil
	})
	if err != nil {
		t.Fatalf("Tree: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded tree invalid: %v", err)
	}
	if got, want := loaded.Stats(), tree.Stats(); got != want {
		t.Errorf("stats diverge: %+v vs %+v", got, want)
	}
	if info := snap.Info; info.Meta != meta || info.NH != 16 || len(snap.Entities) != 40 || snap.HasSeqs {
		t.Errorf("info = %+v (HasSeqs %t), want meta %+v, nh 16, 40 entities, no sequences", info, snap.HasSeqs, meta)
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

// TestSnapshotOneImageBothReaders: one image written with its sequences reads
// as a stream into a name-resolved tree (which stops before the sequences and
// seals its own cell index) and by offset into a tree served in place (which
// adopts the stored one) — and both are the tree that was saved: same shape,
// same memory, same answers, same work per query. The saved tree is a refresh
// generation with added pairs, a stale pair and a removed entity, so the
// stored index is the fold the writer makes, not the sealed base.
func TestSnapshotOneImageBothReaders(t *testing.T) {
	ix, st, base := buildRandomWorld(t, 53, 40, 16)
	st2 := st.Derive()
	st2.Put(trace.NewSequences(ix, 7, []trace.Record{{Entity: 7, Base: 2, Start: 40, End: 43}}))
	tree, err := base.Derive(st2, []trace.EntityID{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Remove(11); err != nil {
		t.Fatal(err)
	}
	img := writeImage(t, tree, st2)

	streamed, err := readSnapshot(bytes.NewReader(img), ix, st2)
	if err != nil {
		t.Fatalf("stream read of an image with sequences: %v", err)
	}
	mapped, err := openMapped(img, ix, st2)
	if err != nil {
		t.Fatalf("read by offset: %v", err)
	}
	// A replay retightens group signatures and drops entity 7's stale pairs,
	// which the stored index keeps (superset semantics): the references are
	// the tree rebuilt from scratch and the saved tree's own postings.
	rebuilt, err := tree.Clone(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamed.Stats(), rebuilt.Stats(); got != want {
		t.Errorf("streamed stats %+v, rebuilt %+v", got, want)
	}
	if got, want := len(mapped.cells.posts), len(tree.cells.posts)+tree.cells.addedPairs-len(tree.cells.postingsOf(11)); got != want {
		t.Errorf("mapped tree adopted %d postings, the saved tree posts %d outside its removed entity", got, want)
	}
	for _, loaded := range []*Tree{streamed, mapped} {
		if err := loaded.Validate(); err != nil {
			t.Fatalf("loaded tree invalid: %v", err)
		}
		if loaded.Contains(11) || !loaded.Contains(7) {
			t.Fatal("loaded tree's population differs from the saved one")
		}
	}
	for _, m := range measuresFor(t, 3) {
		for e := trace.EntityID(0); e < 40; e++ {
			q := st2.Get(e)
			want, ws, err := tree.TopK(q, 5, m)
			if err != nil {
				t.Fatal(err)
			}
			for name, loaded := range map[string]*Tree{"streamed": streamed, "mapped": mapped} {
				got, gs, err := loaded.TopK(q, 5, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s tree, query %d: %v, saved tree %v", name, e, got, want)
				}
				if name == "mapped" && gs.ZeroSkipped+gs.BoundSkipped != ws.ZeroSkipped+ws.BoundSkipped {
					t.Fatalf("mapped tree, query %d: skipped %d+%d, saved tree %d+%d", e, gs.ZeroSkipped, gs.BoundSkipped, ws.ZeroSkipped, ws.BoundSkipped)
				}
			}
		}
	}
	// An image without sequences cannot be served in place.
	if _, err := openMapped(writeImage(t, tree, nil), ix, st2); err == nil || !strings.Contains(err.Error(), "no sequence section") {
		t.Errorf("MappedTree over an image without sequences: %v", err)
	}
}

// postingsOf counts the pairs posted for e, sealed and added.
func (ci *cellIndex) postingsOf(e trace.EntityID) (out []trace.Cell) {
	ci.pairs(nil)(func(c trace.Cell, p trace.EntityID) {
		if p == e {
			out = append(out, c)
		}
	})
	return out
}

// TestSnapshotV2DefaultReaderTrustsIDs: a nil resolver maps stored IDs
// verbatim.
func TestSnapshotV2DefaultReaderTrustsIDs(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 31, 25, 8)
	var buf bytes.Buffer
	if _, err := tree.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, nil, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), FoldedUnknown
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := readSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatalf("nil-resolver read: %v", err)
	}
	if loaded.Len() != tree.Len() {
		t.Fatalf("loaded %d entities, want %d", loaded.Len(), tree.Len())
	}
}

// TestSnapshotV2ResolverRemapsAndSkips: the resolver's mapped IDs land in
// the tree, skipped entities stay out, and a resolver error aborts the load
// verbatim.
func TestSnapshotV2ResolverRemapsAndSkips(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 37, 20, 8)
	snap, err := decodeSnapshot(bytes.NewReader(writeImage(t, tree, nil)), ix)
	if err != nil {
		t.Fatal(err)
	}
	// Skip odd entities.
	loaded, err := snap.Tree(ix, st, func(se SnapshotEntity) (trace.EntityID, bool, error) {
		if se.ID%2 == 1 {
			return 0, false, nil
		}
		return se.ID, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entities) != 20 || loaded.Len() != 10 {
		t.Fatalf("stored %d / kept %d, want 20 / 10", len(snap.Entities), loaded.Len())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("tree with skips invalid: %v", err)
	}
	for e := trace.EntityID(0); e < 20; e++ {
		if got := loaded.Contains(e); got != (e%2 == 0) {
			t.Errorf("Contains(%d) = %t", e, got)
		}
	}

	// Two stored entities resolved onto one ID are a repeat.
	if _, err := snap.Tree(ix, st, func(SnapshotEntity) (trace.EntityID, bool, error) { return 3, true, nil }); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Errorf("two entities resolved to one ID: %v", err)
	}
	// Resolver errors abort.
	boom := fmt.Errorf("boom")
	if _, err := snap.Tree(ix, st, func(SnapshotEntity) (trace.EntityID, bool, error) { return 0, false, boom }); err != boom {
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
	if _, err := readSnapshot(bytes.NewReader(writeImage(t, tree, nil)), ix, small); err == nil || !strings.Contains(err.Error(), `"e10"`) {
		t.Errorf("load against a smaller source did not name the first missing entity: %v", err)
	}
}

// TestSnapshotV2Errors is the image's corruption table, each case through
// both readers: truncation at every section, every bounded scalar, every
// entity-record check and every cell-index check is a descriptive error —
// never a panic, never a tree. (The container's own checks — magic, claimed
// size, alignment, section bounds — are internal/secfile's table.)
func TestSnapshotV2Errors(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 43, 10, 8)
	good := writeImage(t, tree, st)
	secs := sections(t, good)
	meta, names, ents, cells, seqs := secs[0], secs[1], secs[2], secs[3], secs[4]
	const rec = entFixed + 12*3
	restamp := func(b []byte) { // recompute the cell index's CRC after editing it
		body := b[cells.Off : cells.End()-4]
		binary.LittleEndian.PutUint32(b[cells.End()-4:], crc32c(body))
	}
	nk := int64(binary.LittleEndian.Uint64(good[cells.Off:]))
	firstPost := cells.Off + 16 + 8*nk + 4*(nk+1)
	// The first key that posts at least two entities.
	twoPosts := int64(-1)
	for i := int64(0); i < nk && twoPosts < 0; i++ {
		lo := binary.LittleEndian.Uint32(good[cells.Off+16+8*nk+4*i:])
		if hi := binary.LittleEndian.Uint32(good[cells.Off+16+8*nk+4*(i+1):]); hi-lo >= 2 {
			twoPosts = firstPost + 4*int64(lo)
		}
	}
	if twoPosts < 0 {
		t.Fatal("fixture: no cell posts two entities")
	}

	cases := []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		{"level mismatch", func(b []byte) { b[meta.Off] = 2 }, "levels"},
		{"zero hash functions", func(b []byte) { clear(b[meta.Off+8 : meta.Off+16]) }, "hash functions"},
		{"hash functions past the cap", func(b []byte) { binary.LittleEndian.PutUint64(b[meta.Off+8:], maxSnapshotNH+1) }, "hash functions"},
		{"zero horizon", func(b []byte) { clear(b[meta.Off+24 : meta.Off+32]) }, "horizon"},
		{"entity count past int32", func(b []byte) { binary.LittleEndian.PutUint64(b[meta.Off+32:], 1<<40) }, "entities"},
		{"entity table ≠ count × record", func(b []byte) { b[meta.Off+32] += 3 }, "entity table is"},
		{"non-positive time unit", func(b []byte) { clear(b[meta.Off+40 : meta.Off+48]) }, "time unit"},
		{"unknown flag bit", func(b []byte) { b[meta.Off+72] |= 0x80 }, "flag"},
		{"name span outside its section", func(b []byte) { binary.LittleEndian.PutUint64(b[ents.Off+4:], uint64(names.Len)) }, "name span"},
		{"name span offset overflow", func(b []byte) { binary.LittleEndian.PutUint64(b[ents.Off+4:], 1<<63) }, "name span"},
		{"sequence span outside its section", func(b []byte) { binary.LittleEndian.PutUint32(b[ents.Off+24:], 0x7FFFFFF0) }, "sequence span"},
		{"sequence span offset past the section", func(b []byte) { binary.LittleEndian.PutUint64(b[ents.Off+16:], uint64(seqs.Len)) }, "sequence span"},
		{"repeated ID", func(b []byte) { copy(b[ents.Off+rec:ents.Off+rec+4], b[ents.Off:ents.Off+4]) }, "repeats entity"},
		{"routing ≥ nh", func(b []byte) { binary.LittleEndian.PutUint32(b[ents.Off+entFixed:], 8) }, "routing"},
		{"cells: one posting removed, CRC stale", func(b []byte) {
			copy(b[firstPost:cells.End()-8], b[firstPost+4:cells.End()-4])
		}, "checksum"},
		{"cells: one bit flipped", func(b []byte) { b[cells.Off+20] ^= 1 }, "checksum"},
		{"cells: CRC re-stamped, list unsorted", func(b []byte) {
			x, y := b[twoPosts:twoPosts+4], b[twoPosts+4:twoPosts+8]
			for i := range x {
				x[i], y[i] = y[i], x[i]
			}
			restamp(b)
		}, "not ascending"},
		{"cells: CRC re-stamped, entity posted twice", func(b []byte) {
			copy(b[twoPosts+4:twoPosts+8], b[twoPosts:twoPosts+4])
			restamp(b)
		}, "not ascending"},
		{"cells: CRC re-stamped, keys out of order", func(b []byte) {
			copy(b[cells.Off+16+8:cells.Off+16+16], b[cells.Off+16:cells.Off+16+8])
			restamp(b)
		}, "keys not ascending"},
		{"cells: CRC re-stamped, offsets decrease", func(b []byte) {
			binary.LittleEndian.PutUint32(b[cells.Off+16+8*nk+4:], 0xFFFFFF00)
			restamp(b)
		}, "offsets"},
		{"cells: CRC re-stamped, offsets stop short of the postings", func(b []byte) {
			b[cells.Off+16+8*nk+4*nk]--
			restamp(b)
		}, "offsets"},
		{"cells: CRC re-stamped, unknown entity posted", func(b []byte) {
			binary.LittleEndian.PutUint32(b[firstPost:], 999)
			restamp(b)
		}, "does not hold"},
		{"cells: CRC re-stamped, counts disagree with the section", func(b []byte) {
			b[cells.Off+8]++
			restamp(b)
		}, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			if _, err := readSnapshot(bytes.NewReader(b), ix, st); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("stream: want an error containing %q, got %v", tc.want, err)
			}
			if _, err := openMapped(b, ix, st); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("by offset: want an error containing %q, got %v", tc.want, err)
			}
		})
	}

	// A stream cut anywhere before the sequences is refused; one cut inside
	// them is not read that far. By offset every cut is a size mismatch.
	for _, cut := range []int64{0, 5, 12, 40, meta.Off + 3, names.Off + 1, ents.Off + 5, ents.Off + rec + entFixed + 2, cells.Off + 7, cells.End() - 2} {
		if _, err := readSnapshot(bytes.NewReader(good[:cut]), ix, st); err == nil {
			t.Errorf("stream truncated at %d of %d bytes accepted", cut, len(good))
		}
		if _, err := openMapped(good[:cut], ix, st); err == nil {
			t.Errorf("file truncated at %d of %d bytes accepted", cut, len(good))
		}
	}
	if _, err := readSnapshot(bytes.NewReader(good[:seqs.Off+1]), ix, st); err != nil {
		t.Errorf("stream cut inside the sequence section, which a stream read never reaches: %v", err)
	}

	// Not an image: a container of the wrong sections.
	var env bytes.Buffer
	sw, err := secfile.NewWriter(&env, []secfile.Section{{Kind: secfile.Slots, Len: 1}, {Kind: secfile.Ordinals}, {Kind: secfile.Shard}})
	if err != nil {
		t.Fatal(err)
	}
	sw.Write([]byte{0})
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(&env, ix, st); err == nil || !strings.Contains(err.Error(), "not an index image") {
		t.Errorf("cluster envelope read as an image: %v", err)
	}
	// Wrong sp-index height.
	wrongIx, _, _ := fixture411(t) // height 2, snapshot has 3
	if _, err := readSnapshot(bytes.NewReader(good), wrongIx, st); err == nil {
		t.Error("mismatched sp-index accepted")
	}
	// Oversized names fail at write time.
	if _, err := tree.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, nil, func(e trace.EntityID) (string, uint32) {
		return strings.Repeat("x", 1<<17), 0
	}); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("oversized name accepted: %v", err)
	}
	// A nil info callback is refused (readers resolve by name).
	if _, err := tree.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, nil, nil); err == nil {
		t.Error("nil info callback accepted")
	}
}

// TestSnapshotV2LoadedTreeStaysMaintainable: a loaded tree — replayed over
// the reader's sequences or served in place — accepts Remove/Update like a
// built one.
func TestSnapshotV2LoadedTreeStaysMaintainable(t *testing.T) {
	ix, st, tree := buildRandomWorld(t, 47, 15, 8)
	img := writeImage(t, tree, st)
	streamed, err := readSnapshot(bytes.NewReader(img), ix, st)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := openMapped(img, ix, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range []*Tree{streamed, mapped} {
		if err := loaded.Remove(3); err != nil {
			t.Fatalf("Remove on a loaded tree: %v", err)
		}
		if err := loaded.Update(7); err != nil {
			t.Fatalf("Update on a loaded tree: %v", err)
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("Validate after maintenance: %v", err)
		}
	}
}

// anySource has sequences for every entity: what a fuzzed image's IDs resolve
// against.
type anySource struct{ s *trace.Sequences }

func (a anySource) Get(trace.EntityID) *trace.Sequences { return a.s }

// FuzzOpenSnapshot: arbitrary bytes through the one decoder, as a stream and
// by offset, are an error or an image whose tree passes Validate — never a
// panic, never an allocation sized by an unchecked word. The committed corpus
// (testdata/fuzz/FuzzOpenSnapshot) holds one real image with and without its
// sequences and one cluster envelope; fresh ones are added here so the corpus
// follows the format.
func FuzzOpenSnapshot(f *testing.F) {
	ix, st, tree := buildRandomWorld(f, 59, 4, 8)
	f.Add(writeImage(f, tree, nil))
	f.Add(writeImage(f, tree, st))
	src := anySource{st.Get(0)}
	f.Fuzz(func(t *testing.T, b []byte) {
		open := map[string]func() (*secfile.Reader, error){
			"stream":    func() (*secfile.Reader, error) { return secfile.NewReader(bytes.NewReader(b)) },
			"by offset": func() (*secfile.Reader, error) { return secfile.NewReaderAt(bytes.NewReader(b), int64(len(b))) },
		}
		for name, fn := range open {
			sr, err := fn()
			if err != nil {
				continue
			}
			snap, err := DecodeSnapshot(sr, ix)
			// A loader checks the scalars against its configuration before it
			// builds the hash family they size (DB.checkSnapshotInfo).
			if err != nil || snap.Info.NH > 64 || snap.Info.Horizon > 1<<12 {
				continue
			}
			var loaded *Tree
			if snap.HasSeqs {
				loaded, err = snap.MappedTree(ix, src)
			} else {
				loaded, err = snap.Tree(ix, src, nil)
			}
			if err != nil {
				t.Fatalf("%s: decoded image does not replay: %v", name, err)
			}
			if err := loaded.Validate(); err != nil {
				t.Fatalf("%s: replayed tree invalid: %v", name, err)
			}
		}
	})
}
