package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// writeImage serializes p over seqs with the e<ID> naming.
func writeImage(t testing.TB, p *Postings, seqs SequenceSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, seqs, snapshotNames); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// bareImage is img cut to its meta, name and entity table sections: the
// retired layout without sequences, which every reader must refuse.
func bareImage(t testing.TB, img []byte) []byte {
	t.Helper()
	var secs []secfile.Section
	for _, sec := range sections(t, img)[:3] {
		secs = append(secs, secfile.Section{Kind: sec.Kind, Len: sec.Len})
	}
	var buf bytes.Buffer
	sw, err := secfile.NewWriter(&buf, secs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range sections(t, img)[:3] {
		if _, err := sw.Write(img[sec.Off:sec.End()]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.Close(); err != nil {
		t.Fatal(err)
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

// openMapped decodes img by offset and serves it in place over src.
func openMapped(img []byte, ix *spindex.Index, src SequenceSource) (*Postings, error) {
	sr, err := secfile.NewReaderAt(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(sr, ix)
	if err != nil {
		return nil, err
	}
	return snap.MappedPostings(ix, src), nil
}

// TestSnapshotV2RoundTrip: WriteSnapshot + DecodeSnapshot + MappedPostings
// reproduces an identical index and surfaces the meta, names and folded
// counts.
func TestSnapshotV2RoundTrip(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 29, 40)
	meta := SnapshotMeta{TimeUnit: time.Hour, EpochNanos: 123456789, MeasureU: 2, MeasureV: 3}
	var buf bytes.Buffer
	if _, err := post.WriteSnapshot(&buf, meta, st, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), uint32(e)
	}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	snap, err := decodeSnapshot(&buf, ix)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	loaded := snap.MappedPostings(ix, st)
	requireCellInvariant(t, "loaded", loaded)
	if !slices.Equal(loaded.Entities(), post.Entities()) || loaded.MemoryBytes() != post.MemoryBytes() {
		t.Errorf("loaded index differs: %d entities, %d bytes; saved %d, %d", loaded.Len(), loaded.MemoryBytes(), post.Len(), post.MemoryBytes())
	}
	if snap.Meta != meta || len(snap.Entities) != 40 {
		t.Errorf("meta = %+v (%d entities), want %+v, 40 entities", snap.Meta, len(snap.Entities), meta)
	}
	for e, se := range snap.Entities {
		if se.Name != fmt.Sprintf("e%d", e) || se.Folded != uint32(e) {
			t.Fatalf("decoded %+v, want name e%d and folded %d", se, e, e)
		}
	}
	m := measuresFor(t, 3)[0]
	for e := trace.EntityID(0); e < 10; e++ {
		a, _, err := post.TopK(st.Get(e), 5, m)
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

// TestSnapshotOneImageBothReaders: one image reads by offset into postings
// served in place (which adopt the stored cell index) — and they are the
// index that was saved: same entities, same answers, same candidates per
// query. The saved index is a refresh generation with added
// pairs, a stale pair and a removed entity — the one with the largest ID, so
// the rest are still 0..n−1 — so the stored cell index is the fold the writer
// makes, not the sealed base.
func TestSnapshotOneImageBothReaders(t *testing.T) {
	ix, st, base := buildRandomPostings(t, 53, 40)
	st2 := st.Derive()
	st2.Put(trace.NewSequences(ix, 7, []trace.Record{{Entity: 7, Base: 2, Start: 40, End: 43}}))
	post, err := base.Derive(st2, []trace.EntityID{7})
	if err != nil {
		t.Fatal(err)
	}
	post.remove(39)
	img := writeImage(t, post, st2)

	loaded, err := openMapped(img, ix, st2)
	if err != nil {
		t.Fatalf("read by offset: %v", err)
	}
	requireCellInvariant(t, "loaded", loaded)
	if got, want := len(loaded.cells.posts), len(post.cells.posts)+post.cells.added.Writes()-len(post.cells.postingsOf(39)); got != want {
		t.Errorf("loaded index adopted %d postings, the saved index posts %d outside its removed entity", got, want)
	}
	if loaded.Contains(39) || !loaded.Contains(7) || !slices.Equal(loaded.Entities(), post.Entities()) {
		t.Fatalf("loaded index's population differs from the saved one")
	}
	for _, m := range measuresFor(t, 3) {
		for e := trace.EntityID(0); e < 40; e++ {
			q := st2.Get(e)
			want, ws, err := post.TopK(q, 5, m)
			if err != nil {
				t.Fatal(err)
			}
			got, gs, err := loaded.TopK(q, 5, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded index, query %d: %v, saved index %v", e, got, want)
			}
			// The same candidates in the same buckets. Which of a bucket's
			// candidates their own sizes skip depends on the k-th answer when
			// each is met, and the stored index lists entity 7's pairs in its
			// sealed lists where the saved one holds them added, so Checked
			// may differ.
			if gs.ZeroSkipped != ws.ZeroSkipped || gs.Reached() != ws.Reached() {
				t.Fatalf("loaded index, query %d: skipped %d+%d, saved index %d+%d", e, gs.ZeroSkipped, gs.BoundSkipped, ws.ZeroSkipped, ws.BoundSkipped)
			}
		}
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

// TestSnapshotV2DefaultReaderTrustsIDs: the reader serves stored IDs
// verbatim, entities stamped FoldedUnknown included.
func TestSnapshotV2DefaultReaderTrustsIDs(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 31, 25)
	var buf bytes.Buffer
	if _, err := post.WriteSnapshot(&buf, SnapshotMeta{TimeUnit: time.Hour}, st, func(e trace.EntityID) (string, uint32) {
		return fmt.Sprintf("e%d", e), FoldedUnknown
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := readSnapshot(&buf, ix, st)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !slices.Equal(loaded.Entities(), post.Entities()) {
		t.Fatalf("loaded entities %v, want %v", loaded.Entities(), post.Entities())
	}
}

// TestSnapshotLoadTimeSourceValidation: every entity's sequences go into the
// image, so an entity the source has no sequences for fails the write with
// an error naming it — an image can never hold an entity it cannot serve.
func TestSnapshotLoadTimeSourceValidation(t *testing.T) {
	ix, bigStore, post := buildRandomPostings(t, 41, 30)
	// A store that only knows the first 10 entities.
	small := trace.NewStore(ix)
	for e := trace.EntityID(0); e < 10; e++ {
		small.Put(bigStore.Get(e))
	}
	if _, err := post.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, small, snapshotNames); err == nil || !strings.Contains(err.Error(), "entity 10 ") {
		t.Errorf("write against a smaller source did not name the first missing entity: %v", err)
	}
}

// rowIDImage is a real image whose entity table's row 3 carries ID 5, its
// checksum re-stamped: an image whose rows are not entities 0..n−1.
func rowIDImage(t testing.TB) (img []byte, ix *spindex.Index, st *trace.Store) {
	ix, st, post := buildRandomPostings(t, 61, 6)
	img = writeImage(t, post, st)
	ents := sections(t, img)[2]
	binary.LittleEndian.PutUint32(img[ents.Off+3*entSize:], 5)
	binary.LittleEndian.PutUint32(img[ents.End()-4:], crc32c(img[ents.Off:ents.End()-4]))
	return img, ix, st
}

// TestDecodeSnapshotRefusesRowID: row i of an image's entity table must carry
// entity ID i. The decoder refuses any other, naming the row — rowIDImage's
// image, which FuzzOpenSnapshot's corpus holds as
// row-id-mismatch-image, too; the writer refuses an index missing an entity
// below its largest ID, naming the row that entity would have filled.
func TestDecodeSnapshotRefusesRowID(t *testing.T) {
	img, ix, st := rowIDImage(t)
	const want = "entity table row 3 carries ID 5, not 3"
	for name, img := range map[string][]byte{"built": img, "seed": readSeed(t, "testdata/fuzz/FuzzOpenSnapshot/row-id-mismatch-image")} {
		if _, err := openMapped(img, ix, st); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s, by offset: %v, want an error containing %q", name, err, want)
		}
	}
	_, st, post := buildRandomPostings(t, 61, 6)
	post.remove(2)
	if _, err := post.WriteSnapshot(io.Discard, SnapshotMeta{TimeUnit: time.Hour}, st, snapshotNames); err == nil || !strings.Contains(err.Error(), "row 2 would hold entity 3") {
		t.Errorf("WriteSnapshot of an index missing entity 2: %v", err)
	}
}

// TestSnapshotV2Errors is the image's corruption table: truncation at every section, every bounded scalar, every
// entity-record check and every cell-index check is a descriptive error —
// never a panic, never an index. (The container's own checks — magic, claimed
// size, alignment, section bounds — are internal/secfile's table.)
func TestSnapshotV2Errors(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 43, 10)
	good := writeImage(t, post, st)
	secs := sections(t, good)
	meta, names, ents, sizes, cells, seqs := secs[0], secs[1], secs[2], secs[3], secs[4], secs[5]
	restamp := func(b []byte, sec secfile.Section) { // recompute a section's CRC after editing it
		binary.LittleEndian.PutUint32(b[sec.End()-4:], crc32c(b[sec.Off:sec.End()-4]))
	}
	entry := func(i int) int { return len(secfile.Magic) + 16 + 20*i } // section i's table entry: kind tag, offset u64, length u64
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
		{"entity count past int32", func(b []byte) { binary.LittleEndian.PutUint64(b[meta.Off+8:], 1<<40) }, "entities"},
		{"entity table ≠ count × record", func(b []byte) { b[meta.Off+8] += 3 }, "entity table is"},
		{"non-positive time unit", func(b []byte) { clear(b[meta.Off+16 : meta.Off+24]) }, "time unit"},
		{"unknown flag bit", func(b []byte) { b[meta.Off+48] |= 0x80 }, "flag"},
		{"pre-postings image: entity section with signature digests", func(b []byte) { copy(b[entry(2):], secfile.SignedEntities) }, "retired index format — re-save"},
		{"pre-sizes image: no level-size section", func(b []byte) { copy(b[entry(3):], secfile.Cells) }, "retired index format — re-save"},
		{"etab: one bit flipped", func(b []byte) { b[ents.Off+entSize+1] ^= 1 }, "entity table checksum"},
		{"sizes: one bit flipped", func(b []byte) { b[sizes.Off+2] ^= 1 }, "level sizes checksum"},
		{"sizes: CRC re-stamped, a level marks no entity", func(b []byte) {
			b[sizes.Off+4] = 0
			restamp(b, sizes)
		}, "marks no entity"},
		{"name span outside its section", func(b []byte) {
			binary.LittleEndian.PutUint64(b[ents.Off+4:], uint64(names.Len))
			restamp(b, ents)
		}, "name span"},
		{"name span offset overflow", func(b []byte) {
			binary.LittleEndian.PutUint64(b[ents.Off+4:], 1<<63)
			restamp(b, ents)
		}, "name span"},
		{"sequence span outside its section", func(b []byte) {
			binary.LittleEndian.PutUint32(b[ents.Off+24:], 0x7FFFFFF0)
			restamp(b, ents)
		}, "sequence span"},
		{"sequence span offset past the section", func(b []byte) {
			binary.LittleEndian.PutUint64(b[ents.Off+16:], uint64(seqs.Len))
			restamp(b, ents)
		}, "sequence span"},
		{"repeated ID", func(b []byte) {
			copy(b[ents.Off+entSize:ents.Off+entSize+4], b[ents.Off:ents.Off+4])
			restamp(b, ents)
		}, "row 1 carries ID 0"},
		{"etab: CRC re-stamped, IDs descending", func(b []byte) {
			binary.LittleEndian.PutUint32(b[ents.Off+entSize:], 1<<20)
			restamp(b, ents)
		}, "row 1 carries ID 1048576"},
		{"cells: one posting removed, CRC stale", func(b []byte) {
			copy(b[firstPost:cells.End()-8], b[firstPost+4:cells.End()-4])
		}, "checksum"},
		{"cells: one bit flipped", func(b []byte) { b[cells.Off+20] ^= 1 }, "checksum"},
		{"cells: CRC re-stamped, list unsorted", func(b []byte) {
			x, y := b[twoPosts:twoPosts+4], b[twoPosts+4:twoPosts+8]
			for i := range x {
				x[i], y[i] = y[i], x[i]
			}
			restamp(b, cells)
		}, "not ascending"},
		{"cells: CRC re-stamped, entity posted twice", func(b []byte) {
			copy(b[twoPosts+4:twoPosts+8], b[twoPosts:twoPosts+4])
			restamp(b, cells)
		}, "not ascending"},
		{"cells: CRC re-stamped, keys out of order", func(b []byte) {
			copy(b[cells.Off+16+8:cells.Off+16+16], b[cells.Off+16:cells.Off+16+8])
			restamp(b, cells)
		}, "keys not ascending"},
		{"cells: CRC re-stamped, offsets decrease", func(b []byte) {
			binary.LittleEndian.PutUint32(b[cells.Off+16+8*nk+4:], 0xFFFFFF00)
			restamp(b, cells)
		}, "offsets"},
		{"cells: CRC re-stamped, offsets stop short of the postings", func(b []byte) {
			b[cells.Off+16+8*nk+4*nk]--
			restamp(b, cells)
		}, "offsets"},
		{"cells: CRC re-stamped, unknown entity posted", func(b []byte) {
			binary.LittleEndian.PutUint32(b[firstPost:], 999)
			restamp(b, cells)
		}, "does not hold"},
		{"cells: CRC re-stamped, counts disagree with the section", func(b []byte) {
			b[cells.Off+8]++
			restamp(b, cells)
		}, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			if _, err := openMapped(b, ix, st); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("by offset: want an error containing %q, got %v", tc.want, err)
			}
		})
	}

	// Every cut is a size mismatch, one inside the sequences too.
	for _, cut := range []int64{0, 5, 12, 40, meta.Off + 3, names.Off + 1, ents.Off + 5, ents.Off + entSize + 2, sizes.Off + 1, sizes.End() - 2, cells.Off + 7, cells.End() - 2, seqs.Off + 1} {
		if _, err := openMapped(good[:cut], ix, st); err == nil {
			t.Errorf("file truncated at %d of %d bytes accepted", cut, len(good))
		}
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
	if _, err := post.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, st, func(e trace.EntityID) (string, uint32) {
		return strings.Repeat("x", 1<<17), 0
	}); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("oversized name accepted: %v", err)
	}
	// A nil info callback or sequence source is refused.
	if _, err := post.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, st, nil); err == nil {
		t.Error("nil info callback accepted")
	}
	if _, err := post.WriteSnapshot(&bytes.Buffer{}, SnapshotMeta{TimeUnit: time.Hour}, nil, snapshotNames); err == nil {
		t.Error("nil sequence source accepted")
	}
}

// TestSnapshotV2LoadedTreeStaysMaintainable: a loaded index, served in place,
// derives like a built one.
func TestSnapshotV2LoadedTreeStaysMaintainable(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 47, 15)
	img := writeImage(t, post, st)
	loaded, err := openMapped(img, ix, st)
	if err != nil {
		t.Fatal(err)
	}
	dst := st.Derive()
	dst.AddRecords(7, []trace.Record{{Entity: 7, Base: 3, Start: 2, End: 5}})
	newbie := trace.EntityID(dst.Len())
	dst.AddRecords(newbie, []trace.Record{{Entity: newbie, Base: 4, Start: 1, End: 3}})
	derived, err := loaded.Derive(dst, []trace.EntityID{7, newbie})
	if err != nil {
		t.Fatalf("Derive on a loaded index: %v", err)
	}
	requireCellInvariant(t, "derived from a loaded index", derived)
	if derived.Len() != 16 || loaded.Len() != 15 {
		t.Fatalf("derived %d entities from %d, want 16 from 15", derived.Len(), loaded.Len())
	}
}

// TestRetiredImagesRefused: the FuzzOpenSnapshot seeds written before the
// index dropped its signatures (retired-image-*), the one with sequences
// written before it kept its entities' level sizes (presize-image-*), the one
// written without its sequences (image-without-seqs), and a fresh image cut to
// that layout are refused by name.
func TestRetiredImagesRefused(t *testing.T) {
	ix, st, post := buildRandomPostings(t, 59, 4)
	paths, err := filepath.Glob("testdata/fuzz/FuzzOpenSnapshot/retired-image-*")
	presize, err2 := filepath.Glob("testdata/fuzz/FuzzOpenSnapshot/presize-image-*")
	if err != nil || err2 != nil || len(paths) != 2 || len(presize) != 1 {
		t.Fatalf("retired seeds %v %v, %v %v", paths, presize, err, err2)
	}
	refused := func(name string, img []byte) {
		t.Helper()
		if _, err := openMapped(img, ix, st); err == nil || !strings.Contains(err.Error(), "retired index format — re-save") {
			t.Errorf("%s, by offset: %v", name, err)
		}
	}
	for _, path := range append(append(paths, presize...), "testdata/fuzz/FuzzOpenSnapshot/image-without-seqs") {
		refused(path, readSeed(t, path))
	}
	refused("a fresh image cut to its entity table", bareImage(t, writeImage(t, post, st)))
}

// readSeed reads the bytes of a committed fuzz seed.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	b, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// anySource has sequences for every entity: what a fuzzed image's IDs resolve
// against.
type anySource struct{ s *trace.Sequences }

func (a anySource) Get(trace.EntityID) *trace.Sequences { return a.s }

// FuzzOpenSnapshot: arbitrary bytes through the one decoder, read by offset,
// are an error or an image whose index is well formed and
// answers — never a panic, never an allocation sized by an unchecked word.
// The committed corpus (testdata/fuzz/FuzzOpenSnapshot) holds one real image
// and one cluster envelope, and retired layouts which must be refused: an
// image without its sequences, the image, the sequence-less image and the
// envelope written before the index dropped its signatures (retired-*), and
// the image written before the level sizes (presize-*); a fresh image, and
// the same cut to the sequence-less layout, are added here so the corpus
// follows the format.
func FuzzOpenSnapshot(f *testing.F) {
	ix, st, post := buildRandomPostings(f, 59, 4)
	img := writeImage(f, post, st)
	f.Add(img)
	f.Add(bareImage(f, img))
	src := anySource{st.Get(0)}
	m := measuresFor(f, 3)[0]
	f.Fuzz(func(t *testing.T, b []byte) {
		sr, err := secfile.NewReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		snap, err := DecodeSnapshot(sr, ix)
		if err != nil {
			return
		}
		loaded := snap.MappedPostings(ix, src)
		requireCellStructure(t, "by offset", loaded)
		if _, _, err := loaded.TopK(src.s, 3, m); err != nil {
			t.Fatalf("loaded index does not answer: %v", err)
		}
	})
}
