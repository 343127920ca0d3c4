package storage_test

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// encodeRegion serializes every entity of mem into one contiguous buffer and
// returns the spans NewSpanReader needs, entity e's at e — the same shape the
// mapped snapshot writer produces.
func encodeRegion(mem *trace.Store) ([]byte, []storage.Span) {
	var buf bytes.Buffer
	spans := make([]storage.Span, mem.Len())
	for e := range spans {
		blob := storage.EncodeSequences(mem.Get(trace.EntityID(e)))
		spans[e] = storage.Span{Off: int64(buf.Len()), Len: int32(len(blob))}
		buf.Write(blob)
	}
	return buf.Bytes(), spans
}

func TestSpanReaderRoundTrip(t *testing.T) {
	ix, mem := randomStore(t, 7, 12)
	data, spans := encodeRegion(mem)
	sr, err := storage.NewSpanReader(ix, data, spans)
	if err != nil {
		t.Fatalf("NewSpanReader: %v", err)
	}
	if sr.Decoded() != 0 {
		t.Fatalf("open decoded %d entities, want none", sr.Decoded())
	}
	for pass := 0; pass < 2; pass++ {
		for e := range trace.EntityID(mem.Len()) {
			want, got := mem.Get(e), sr.Get(e)
			if got == nil {
				t.Fatalf("entity %d: Get returned nil", e)
			}
			if want.TotalCells() != got.TotalCells() {
				t.Fatalf("entity %d: %d cells, want %d", e, got.TotalCells(), want.TotalCells())
			}
			for l := 1; l <= want.Levels(); l++ {
				wc, gc := want.At(l), got.At(l)
				if len(wc) != len(gc) {
					t.Fatalf("entity %d level %d: %d cells, want %d", e, l, len(gc), len(wc))
				}
				for i := range wc {
					if wc[i] != gc[i] {
						t.Fatalf("entity %d level %d cell %d differs", e, l, i)
					}
				}
			}
		}
		// Each entity is decoded once; the second pass is all heap.
		if sr.Decoded() != len(spans) {
			t.Fatalf("pass %d: %d entities decoded, want %d", pass, sr.Decoded(), len(spans))
		}
	}
	if sr.Get(0) != sr.Get(0) {
		t.Fatal("Get returned two copies of one entity")
	}
	if sr.Len() != mem.Len() {
		t.Fatalf("Len = %d, want %d", sr.Len(), mem.Len())
	}
	// The reader holds entities 0..Len()−1 and nothing else.
	for _, e := range []trace.EntityID{-1, trace.EntityID(mem.Len()), 1 << 20} {
		if sr.Get(e) != nil {
			t.Fatalf("entity %d outside 0..%d reported present", e, mem.Len()-1)
		}
	}
}

// TestSpanReaderConcurrentFirstReads: goroutines racing the first read of
// every entity all see one published copy, and each entity counts once.
func TestSpanReaderConcurrentFirstReads(t *testing.T) {
	ix, mem := randomStore(t, 10, 30)
	data, spans := encodeRegion(mem)
	sr, err := storage.NewSpanReader(ix, data, spans)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*trace.Sequences, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range trace.EntityID(len(spans)) {
				got[g] = append(got[g], sr.Get(e))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, s := range got[g] {
			if s != got[0][i] {
				t.Fatalf("goroutine %d saw another copy of entity %d", g, i)
			}
		}
	}
	if sr.Decoded() != len(spans) {
		t.Fatalf("decoded %d entities, want %d", sr.Decoded(), len(spans))
	}
}

// TestSpanReaderTruncation: a span extending past the backing fails at open
// time with the entity named, never panics in a later Get.
func TestSpanReaderTruncation(t *testing.T) {
	ix, mem := randomStore(t, 8, 6)
	data, spans := encodeRegion(mem)
	// Chop the tail off the region: the last entity's span now dangles.
	short := data[:len(data)-8]
	_, err := storage.NewSpanReader(ix, short, spans)
	if err == nil {
		t.Fatal("NewSpanReader accepted a truncated backing")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not mention truncation: %v", err)
	}
	if !strings.Contains(err.Error(), "entity") {
		t.Fatalf("error does not name the entity: %v", err)
	}

	// Negative offsets and lengths are rejected too.
	if _, err := storage.NewSpanReader(ix, data, []storage.Span{{Off: -1, Len: 4}}); err == nil {
		t.Fatal("NewSpanReader accepted a negative offset")
	}
	if _, err := storage.NewSpanReader(ix, data, []storage.Span{{Off: 0, Len: -4}}); err == nil {
		t.Fatal("NewSpanReader accepted a negative length")
	}
}

// TestSpanReaderCorruptRecordPanics: a record that does not decode panics
// naming the entity — never a nil that a fold would read as "no cells".
func TestSpanReaderCorruptRecordPanics(t *testing.T) {
	ix, mem := randomStore(t, 11, 2)
	data, spans := encodeRegion(mem)
	data = bytes.Clone(data)
	data[spans[0].Off+4] ^= 0xff // the level count
	sr, err := storage.NewSpanReader(ix, data, spans)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "storage: corrupt record for entity") {
			t.Fatalf("Get of a corrupt record: recovered %q, want a corrupt-record panic", msg)
		}
	}()
	sr.Get(0)
}

// TestSpanReaderDoesNotOwnReader: the reader has no Close, so the caller's
// bytes are the caller's to unmap, and it decodes them in place, at the
// spans' offsets within a larger region.
func TestSpanReaderDoesNotOwnReader(t *testing.T) {
	ix, mem := randomStore(t, 9, 3)
	data, spans := encodeRegion(mem)
	region := append(make([]byte, 100), data...)
	for e := range spans {
		spans[e].Off += 100
	}
	sr, err := storage.NewSpanReader(ix, region, spans)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(sr).(io.Closer); ok {
		t.Fatal("SpanReader can close the caller's bytes")
	}
	if got := sr.Get(2); got == nil || got.TotalCells() != mem.Get(2).TotalCells() {
		t.Fatal("Get at an offset within the region failed")
	}
}
