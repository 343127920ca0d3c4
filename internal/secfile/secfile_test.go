package secfile

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// sample writes a four-section file: two packed sections, a paged one, and a
// trailing empty paged one.
func sample(t *testing.T) ([]byte, []Section) {
	t.Helper()
	secs := []Section{{Kind: Meta, Len: 5}, {Kind: Names, Len: 0}, {Kind: Seqs, Len: 7}, {Kind: Shard, Len: 0}}
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, secs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"he", "llo", "", "sequenc"} {
		if _, err := io.WriteString(sw, p); err != nil {
			t.Fatal(err)
		}
	}
	n, err := sw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Close reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes(), secs
}

// TestRoundTrip: what the writer lays out, the reader finds — packed sections
// back to back, paged ones on page boundaries with zeros before them, the file
// ending where the header says, a trailing empty paged section included.
func TestRoundTrip(t *testing.T) {
	file, secs := sample(t)
	if secs[0].Off != int64(headerLen+4*entryLen) || secs[1].Off != secs[0].End() {
		t.Errorf("packed sections at %d and %d, want them right after the table", secs[0].Off, secs[1].Off)
	}
	if secs[2].Off != Page || secs[3].Off != 2*Page || len(file) != 2*Page {
		t.Errorf("paged sections at %d and %d in a %d-byte file, want %d, %d, %d", secs[2].Off, secs[3].Off, len(file), Page, 2*Page, 2*Page)
	}
	if pad := file[secs[1].End():secs[2].Off]; !bytes.Equal(pad, make([]byte, len(pad))) {
		t.Error("padding is not zeros")
	}
	sr, err := NewReader(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Secs) != len(secs) {
		t.Fatalf("%d sections, want %d", len(sr.Secs), len(secs))
	}
	for i, want := range secs {
		if sr.Secs[i] != want {
			t.Errorf("section %d = %+v, want %+v", i, sr.Secs[i], want)
		}
	}
	// Sections are slices at their offsets, in any order, padding skipped,
	// with no room to append into what follows them.
	for _, i := range []int{2, 3, 0, 1} {
		want := []string{"hello", "", "sequenc", ""}[i]
		if got := sr.Bytes(i); string(got) != want || cap(got) != len(got) {
			t.Errorf("section %d = %q (cap %d); want %q", i, got, cap(got), want)
		}
	}
}

// TestWriterHoldsCallersToTheLayout: a write past its section, a write past
// the last section and a Close before the sections are full are errors.
func TestWriterHoldsCallersToTheLayout(t *testing.T) {
	newWriter := func() *Writer {
		sw, err := NewWriter(io.Discard, []Section{{Kind: Meta, Len: 4}, {Kind: Names, Len: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	sw := newWriter()
	if _, err := sw.Write([]byte("12345")); err == nil || !strings.Contains(err.Error(), "overruns the meta section") {
		t.Errorf("write across a section boundary: %v", err)
	}
	sw = newWriter()
	sw.Write([]byte("1234"))
	sw.Write([]byte("12"))
	if _, err := sw.Write([]byte("x")); err == nil || !strings.Contains(err.Error(), "past the last section") {
		t.Errorf("write past the last section: %v", err)
	}
	sw = newWriter()
	sw.Write([]byte("1234"))
	sw.Write([]byte("1"))
	if _, err := sw.Close(); err == nil || !strings.Contains(err.Error(), "name section closed at 1 of its 2 bytes") {
		t.Errorf("Close on a short section: %v", err)
	}
	if _, err := NewWriter(io.Discard, nil); err == nil {
		t.Error("a file of no sections accepted")
	}
}

// TestHeaderErrors is the container's corruption table: every way the header
// and section table can lie is a descriptive error.
func TestHeaderErrors(t *testing.T) {
	good, secs := sample(t)
	const (
		offPage    = len(Magic)
		offClaimed = offPage + 4
		offCount   = offClaimed + 8
		offTable   = offCount + 4
	)
	entry := func(i int) int { return offTable + entryLen*i }
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"short header", func(b []byte) []byte { return b[:16] }, "too short"},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		{"page size", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offPage:], 8192); return b }, "page size 8192"},
		{"file shorter than header claims", func(b []byte) []byte { return b[:len(b)-Page] }, "claims"},
		{"header claims more than the file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[offClaimed:], uint64(len(b))+Page)
			return b
		}, "claims"},
		{"claimed size past int64", func(b []byte) []byte { b[offClaimed+7] = 0x80; return b }, "claimed file size"},
		{"no sections", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offCount:], 0); return b }, "0 sections"},
		{"too many sections", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offCount:], maxSections+1); return b }, "sections"},
		{"truncated section table", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[offCount:], 400) // a table longer than the page it sits on
			binary.LittleEndian.PutUint64(b[offClaimed:], Page)
			return b[:Page]
		}, "section table"},
		{"misaligned section", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(2)+4:], uint64(secs[2].Off)+8)
			return b
		}, "aligned"},
		{"section outside file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(2)+12:], 2*Page)
			return b
		}, "outside file"},
		{"section offset outside file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(3)+4:], 1<<62)
			return b
		}, "outside file"},
		{"section overlaps its predecessor", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(1)+4:], uint64(secs[0].Off)+1)
			return b
		}, "overlaps"},
		{"section inside the header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(0)+4:], 3)
			return b
		}, "overlaps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, err := NewReader(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRetiredMagicsNamed: the four formats this container replaced are refused
// by name, with the way out; anything else is just not an index file.
func TestRetiredMagicsNamed(t *testing.T) {
	for _, old := range retired {
		b := append([]byte(old+"\n"), make([]byte, 64)...)
		_, err := NewReader(b)
		if err == nil || !strings.Contains(err.Error(), old+" is a retired index format") || !strings.Contains(err.Error(), "re-save") {
			t.Errorf("%s: %v", old, err)
		}
	}
	b := append([]byte("MSIGCLUST1\n"), make([]byte, 64)...)
	_, err := NewReader(b)
	if err == nil || !strings.Contains(err.Error(), "MSIGCLUST1") || strings.Contains(err.Error(), "retired") {
		t.Errorf("an older magic still: %v", err)
	}
}
