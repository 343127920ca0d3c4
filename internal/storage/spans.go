package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Span locates one entity's serialized sequences within a backing region.
type Span struct {
	Off int64
	Len int32
}

// SpanReader serves entity sequences out of a region of EncodeSequences
// blobs — the sequence section of a saved index image — as the lowest layer
// of a trace.Store. Each entity is decoded from its slice on its first Get
// and the result kept, so a warm reader answers from the heap like a built
// store; entities never touched stay on disk (or in the page cache of a
// mapping). Safe for concurrent readers: no lock, racing first reads of one
// entity decode it twice and agree on the first one published.
//
// The reader does not own its bytes: the caller keeps them valid for as long
// as the reader serves, and unmaps them.
type SpanReader struct {
	ix      *spindex.Index
	b       []byte
	spans   []Span // entity e's record is spans[e]
	seqs    []atomic.Pointer[trace.Sequences]
	decoded atomic.Int64
}

// NewSpanReader opens a reader over b for entities 0..len(spans)−1: entity
// e's record is spans[e], offsets into b, as an image's entity table lays
// them out. Every span is validated against len(b) here, at open time: a file
// truncated after its directory was written fails with the offending entity
// named instead of panicking (or SIGBUS-ing a mapped page) during some later
// query.
func NewSpanReader(ix *spindex.Index, b []byte, spans []Span) (*SpanReader, error) {
	for e, sp := range spans {
		if sp.Off < 0 || sp.Len < 0 || sp.Off+int64(sp.Len) > int64(len(b)) {
			return nil, fmt.Errorf("storage: entity %d span [%d,%d) exceeds backing size %d (truncated file?)",
				e, sp.Off, sp.Off+int64(sp.Len), len(b))
		}
	}
	return &SpanReader{ix: ix, b: b, spans: spans, seqs: make([]atomic.Pointer[trace.Sequences], len(spans))}, nil
}

// Get returns e's sequences, decoding them on the first call; nil for an
// entity without a span. A record that does not decode panics naming the
// entity: a nil here would let a fold drop the image's cells for it without a
// trace.
func (sr *SpanReader) Get(e trace.EntityID) *trace.Sequences {
	if uint(e) >= uint(len(sr.spans)) {
		return nil
	}
	if s := sr.seqs[e].Load(); s != nil {
		return s
	}
	sp := sr.spans[e]
	s, err := DecodeSequences(sr.ix, sr.b[sp.Off:sp.Off+int64(sp.Len)])
	if err != nil {
		panic(fmt.Sprintf("storage: corrupt record for entity %d: %v", e, err))
	}
	if sr.seqs[e].CompareAndSwap(nil, s) {
		sr.decoded.Add(1)
	}
	return sr.seqs[e].Load()
}

// Len returns the number of entities the reader holds, 0..Len()−1.
func (sr *SpanReader) Len() int { return len(sr.spans) }

// Decoded returns how many entities have been decoded into the heap so far.
func (sr *SpanReader) Decoded() int { return int(sr.decoded.Load()) }

// EncodedSize returns the byte length EncodeSequences would produce for s,
// letting format writers lay out offset tables without materializing every
// blob first.
func EncodedSize(s *trace.Sequences) int {
	m := s.Levels()
	size := 8 + 4*m
	for l := 1; l <= m; l++ {
		size += 8 * s.Size(l)
	}
	return size
}

// EncodeSequences serializes one entity's sequences — the records Build
// writes and the blobs of an index image's sequence region:
// entity(4) m(4) [count(4) per level] [cells(8·count) per level].
func EncodeSequences(s *trace.Sequences) []byte {
	m := s.Levels()
	buf := make([]byte, EncodedSize(s))
	binary.LittleEndian.PutUint32(buf[0:], uint32(s.Entity))
	binary.LittleEndian.PutUint32(buf[4:], uint32(m))
	off := 8
	for l := 1; l <= m; l++ {
		binary.LittleEndian.PutUint32(buf[off:], uint32(s.Size(l)))
		off += 4
	}
	for l := 1; l <= m; l++ {
		for _, c := range s.At(l) {
			binary.LittleEndian.PutUint64(buf[off:], uint64(c))
			off += 8
		}
	}
	return buf
}

// DecodeSequences reverses EncodeSequences. Only the base level is decoded
// from storage; coarser levels are re-derived from the sp-index, which both
// halves the I/O volume and revalidates the Section 4.1 invariant. The
// stored coarse counts are checked against the re-derivation.
func DecodeSequences(ix *spindex.Index, buf []byte) (*trace.Sequences, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("short header")
	}
	e := trace.EntityID(binary.LittleEndian.Uint32(buf[0:]))
	m := int(binary.LittleEndian.Uint32(buf[4:]))
	if m != ix.Height() {
		return nil, fmt.Errorf("record has %d levels, index has %d", m, ix.Height())
	}
	counts := make([]int, m)
	off := 8
	for l := 0; l < m; l++ {
		if off+4 > len(buf) {
			return nil, fmt.Errorf("truncated counts")
		}
		counts[l] = int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	// Skip coarse-level cells; read the base level. Its count is bounded by
	// the bytes left before it sizes an allocation.
	for l := 0; l < m-1; l++ {
		off += 8 * counts[l]
	}
	if off > len(buf) || counts[m-1] > (len(buf)-off)/8 {
		return nil, fmt.Errorf("truncated cells")
	}
	base := make([]trace.Cell, counts[m-1])
	for i := range base {
		base[i] = trace.Cell(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	s := trace.NewSequencesFromCells(ix, e, base)
	for l := 1; l <= m; l++ {
		if s.Size(l) != counts[l-1] {
			return nil, fmt.Errorf("level %d: derived %d cells, stored %d", l, s.Size(l), counts[l-1])
		}
	}
	return s, nil
}
