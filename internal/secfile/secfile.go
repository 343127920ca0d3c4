// Package secfile is the one container every persisted index uses: a header,
// a section table, and the sections it names, laid out in table order.
//
//	magic "MSIGIDX1\n" · page size u32 · claimed file size u64 · section count u32
//	section table: count × { kind [4]byte · offset u64 · length u64 }
//	sections, zero-padded up to their offsets
//
// A DB image is the sections {meta, ents, name} plus, when it carries the
// sequence data, {cell, seqs}; a cluster envelope is {slot, ords} and one shrd
// section per shard, each of which is a DB image. Paged kinds start on a page
// boundary, so a mapping of the file — or of a shard section inside an
// envelope — serves them in place.
//
// This package is the only code that knows the header, the table, alignment
// and padding, and the only one that checks them: the claimed size equals the
// real one (when that is known), every section lies inside the file after the
// one before it, and paged sections are aligned. What a section holds is its
// reader's business.
package secfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic opens every index file. The formats it replaced are refused by name.
const Magic = "MSIGIDX1\n"

var retired = []string{"MSIGTREE2", "MSIGMAP1", "MSIGCLUST2", "MSIGCMAP2"}

// Page is the alignment unit of paged sections, recorded in the header; a
// reader accepts no other value.
const Page = 4096

const (
	headerLen = len(Magic) + 4 + 8 + 4
	entryLen  = 4 + 8 + 8
	// maxSections bounds the table a header may claim before it is allocated:
	// an envelope of the most shards a slot map can name, plus its two tables.
	maxSections = math.MaxUint16 + 2
)

// Kind names what a section holds: a four-byte tag, stored verbatim.
type Kind string

const (
	Meta     Kind = "meta" // DB image: the hash-family and engine scalars
	Entities Kind = "ents" // DB image: fixed-width entity records
	Names    Kind = "name" // DB image: concatenated entity names
	Cells    Kind = "cell" // DB image: the level-1 cell index, checksummed
	Seqs     Kind = "seqs" // DB image: concatenated sequence blobs, read lazily; paged
	Slots    Kind = "slot" // envelope: the slot map
	Ordinals Kind = "ords" // envelope: entity names in global arrival order
	Shard    Kind = "shrd" // envelope: one shard's DB image (empty for an empty shard); paged
)

func (k Kind) paged() bool { return k == Seqs || k == Shard }

// Section is one entry of the section table.
type Section struct {
	Kind Kind
	Off  int64 // absolute offset; assigned by NewWriter
	Len  int64
}

// End returns the offset just past the section.
func (s Section) End() int64 { return s.Off + s.Len }

// Writer streams a file out section by section. The section lengths are fixed
// up front — the table precedes the data — and Write holds the caller to them.
type Writer struct {
	w    *bufio.Writer
	secs []Section
	cur  int   // the section being filled
	n    int64 // bytes written so far, header included
}

// NewWriter assigns offsets to secs (Kind and Len set by the caller) in order
// and writes the header and the section table.
func NewWriter(w io.Writer, secs []Section) (*Writer, error) {
	if len(secs) == 0 || len(secs) > maxSections {
		return nil, fmt.Errorf("secfile: %d sections, the format holds 1 to %d", len(secs), maxSections)
	}
	off := int64(headerLen + entryLen*len(secs))
	for i := range secs {
		if secs[i].Kind.paged() {
			off = (off + Page - 1) &^ (Page - 1)
		}
		secs[i].Off = off
		off += secs[i].Len
	}
	hdr := append(make([]byte, 0, headerLen+entryLen*len(secs)), Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Page)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(secs)))
	for _, s := range secs {
		hdr = append(hdr, s.Kind...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.Off))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.Len))
	}
	sw := &Writer{w: bufio.NewWriterSize(w, 64<<10), secs: secs}
	n, err := sw.w.Write(hdr)
	sw.n = int64(n)
	return sw, err
}

// Write appends p to the section being filled. A write that would pass the
// end of its section is an error: sections are written whole, in table order.
func (sw *Writer) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := sw.advance(); err != nil {
		return 0, err
	}
	if sw.cur == len(sw.secs) {
		return 0, fmt.Errorf("secfile: %d bytes written past the last section", len(p))
	}
	if s := sw.secs[sw.cur]; sw.n+int64(len(p)) > s.End() {
		return 0, fmt.Errorf("secfile: write overruns the %s section (%d bytes declared)", s.Kind, s.Len)
	}
	n, err := sw.w.Write(p)
	sw.n += int64(n)
	return n, err
}

// advance moves past the sections already full, writing the zero padding up
// to the start of the first that is not.
func (sw *Writer) advance() error {
	var zeros [Page]byte
	for ; sw.cur < len(sw.secs); sw.cur++ {
		s := sw.secs[sw.cur]
		for sw.n < s.Off {
			n, err := sw.w.Write(zeros[:min(s.Off-sw.n, Page)])
			sw.n += int64(n)
			if err != nil {
				return err
			}
		}
		if sw.n < s.End() {
			return nil
		}
	}
	return nil
}

// Close checks that every section was written in full, flushes, and returns
// the file's size. It does not close the underlying writer.
func (sw *Writer) Close() (int64, error) {
	if err := sw.advance(); err != nil {
		return sw.n, err
	}
	if sw.cur < len(sw.secs) {
		s := sw.secs[sw.cur]
		return sw.n, fmt.Errorf("secfile: %s section closed at %d of its %d bytes", s.Kind, sw.n-s.Off, s.Len)
	}
	return sw.n, sw.w.Flush()
}

// Reader reads a file's sections front to back: a stream (NewReader) can do
// no other, and a mapping (NewReaderAt) needs no other — the sections a loader
// leaves for later (Seqs, Shard) it reads by offset itself, from Secs.
type Reader struct {
	Secs []Section

	r     *bufio.Reader
	pos   int64 // offset of the next unread byte
	sized bool  // the real file size is known: section lengths are bounded by bytes that exist
}

// NewReader reads and validates the header and section table from a stream.
// The real size is unknown, so a truncated file surfaces when the section it
// cuts is read.
func NewReader(r io.Reader) (*Reader, error) { return newReader(r, -1) }

// NewReaderAt reads and validates the header and section table of a file of
// the given real size — a mapping, or a section of one.
func NewReaderAt(r io.ReaderAt, size int64) (*Reader, error) {
	return newReader(io.NewSectionReader(r, 0, size), size)
}

// newReader parses the header and the table. Every word is
// corruption-controlled: each is bounded before it sizes an allocation.
func newReader(r io.Reader, size int64) (*Reader, error) {
	sr := &Reader{r: bufio.NewReader(r), sized: size >= 0}
	hdr := make([]byte, headerLen)
	if n, err := io.ReadFull(sr.r, hdr); err != nil {
		return nil, fmt.Errorf("secfile: %d bytes is too short for an index file header (%d): %w", n, headerLen, err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		for _, old := range retired {
			if bytes.HasPrefix(hdr, []byte(old+"\n")) {
				return nil, fmt.Errorf("secfile: %s is a retired index format — re-save the index with this version (SaveIndex or SaveMappedIndex over the rebuilt data)", old)
			}
		}
		return nil, fmt.Errorf("secfile: not an index file (magic %q)", hdr[:12])
	}
	p := len(Magic)
	if page := binary.LittleEndian.Uint32(hdr[p:]); page != Page {
		return nil, fmt.Errorf("secfile: corrupt header: page size %d, want %d", page, Page)
	}
	claimed := binary.LittleEndian.Uint64(hdr[p+4:])
	if claimed > math.MaxInt64 {
		return nil, fmt.Errorf("secfile: corrupt header: claimed file size %d", claimed)
	}
	if size >= 0 && int64(claimed) != size {
		return nil, fmt.Errorf("secfile: file is %d bytes but its header claims %d (truncated or corrupt file)", size, claimed)
	}
	count := binary.LittleEndian.Uint32(hdr[p+12:])
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("secfile: corrupt header: %d sections", count)
	}
	table := make([]byte, entryLen*int(count))
	if _, err := io.ReadFull(sr.r, table); err != nil {
		return nil, fmt.Errorf("secfile: file truncated inside its section table: %w", err)
	}
	sr.Secs = make([]Section, count)
	sr.pos = int64(headerLen + len(table))
	end := sr.pos
	for i := range sr.Secs {
		e := table[entryLen*i:]
		kind := Kind(e[:4])
		off, length := binary.LittleEndian.Uint64(e[4:]), binary.LittleEndian.Uint64(e[12:])
		if kind.paged() && off%Page != 0 {
			return nil, fmt.Errorf("secfile: corrupt section table: %q section offset %d is not %d-page-aligned", kind, off, Page)
		}
		if off > claimed || length > claimed-off {
			return nil, fmt.Errorf("secfile: corrupt section table: %q section [%d,+%d) outside file of %d bytes", kind, off, length, claimed)
		}
		if int64(off) < end {
			return nil, fmt.Errorf("secfile: corrupt section table: %q section at %d overlaps what precedes it (ends at %d)", kind, off, end)
		}
		sr.Secs[i] = Section{Kind: kind, Off: int64(off), Len: int64(length)}
		end = sr.Secs[i].End()
	}
	return sr, nil
}

// ReadAll returns section i's bytes, skipping whatever lies between it and
// the last section read; sections behind that one are out of reach. Unless the
// length is known to be real, the buffer grows with the bytes that actually
// arrive, so a corrupt length cannot size an allocation.
func (sr *Reader) ReadAll(i int) ([]byte, error) {
	s := sr.Secs[i]
	if s.Off < sr.pos {
		return nil, fmt.Errorf("secfile: %q section at %d lies behind the read position %d", s.Kind, s.Off, sr.pos)
	}
	if _, err := io.CopyN(io.Discard, sr.r, s.Off-sr.pos); err != nil {
		return nil, fmt.Errorf("secfile: file truncated before its %q section: %w", s.Kind, err)
	}
	var buf bytes.Buffer
	if sr.sized {
		buf.Grow(int(s.Len))
	}
	n, err := io.CopyN(&buf, sr.r, s.Len)
	sr.pos = s.Off + n
	if err != nil {
		return nil, fmt.Errorf("secfile: %q section truncated (%d of %d bytes): %w", s.Kind, n, s.Len, err)
	}
	return buf.Bytes(), nil
}
