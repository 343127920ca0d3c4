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

// TestRoundTrip: what the writer lays out, both readers find — packed sections
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
	readers := map[string]func() (*Reader, error){
		"stream":    func() (*Reader, error) { return NewReader(bytes.NewReader(file)) },
		"by offset": func() (*Reader, error) { return NewReaderAt(bytes.NewReader(file), int64(len(file))) },
	}
	for name, open := range readers {
		sr, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sr.Secs) != len(secs) {
			t.Fatalf("%s: %d sections, want %d", name, len(sr.Secs), len(secs))
		}
		for i, want := range secs {
			if sr.Secs[i] != want {
				t.Errorf("%s: section %d = %+v, want %+v", name, i, sr.Secs[i], want)
			}
		}
		// Skip the first two sections, read the third: the reader discards
		// what lies between, padding included — and cannot go back.
		got, err := sr.ReadAll(2)
		if err != nil || string(got) != "sequenc" {
			t.Errorf("%s: section 2 = %q, %v", name, got, err)
		}
		if got, err := sr.ReadAll(3); err != nil || len(got) != 0 {
			t.Errorf("%s: empty trailing section = %q, %v", name, got, err)
		}
		if _, err := sr.ReadAll(0); err == nil || !strings.Contains(err.Error(), "behind the read position") {
			t.Errorf("%s: reading an earlier section: %v", name, err)
		}
	}
	sr, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sr.ReadAll(0); err != nil || string(got) != "hello" {
		t.Errorf("section 0 = %q, %v", got, err)
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
// and section table can lie is a descriptive error from both readers (the
// claimed-size checks from the one that knows the real size).
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
		name     string
		mutate   func(b []byte) []byte
		want     string
		sizeOnly bool // only a reader that knows the real size can tell
	}{
		{"short header", func(b []byte) []byte { return b[:16] }, "too short", false},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic", false},
		{"page size", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offPage:], 8192); return b }, "page size 8192", false},
		{"file shorter than header claims", func(b []byte) []byte { return b[:len(b)-Page] }, "claims", true},
		{"header claims more than the file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[offClaimed:], uint64(len(b))+Page)
			return b
		}, "claims", true},
		{"claimed size past int64", func(b []byte) []byte { b[offClaimed+7] = 0x80; return b }, "claimed file size", false},
		{"no sections", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offCount:], 0); return b }, "0 sections", false},
		{"too many sections", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[offCount:], maxSections+1); return b }, "sections", false},
		{"truncated section table", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[offCount:], 400) // a table longer than the page it sits on
			binary.LittleEndian.PutUint64(b[offClaimed:], Page)
			return b[:Page]
		}, "section table", false},
		{"misaligned section", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(2)+4:], uint64(secs[2].Off)+8)
			return b
		}, "aligned", false},
		{"section outside file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(2)+12:], 2*Page)
			return b
		}, "outside file", false},
		{"section offset outside file", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(3)+4:], 1<<62)
			return b
		}, "outside file", false},
		{"section overlaps its predecessor", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(1)+4:], uint64(secs[0].Off)+1)
			return b
		}, "overlaps", false},
		{"section inside the header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[entry(0)+4:], 3)
			return b
		}, "overlaps", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			if _, err := NewReaderAt(bytes.NewReader(b), int64(len(b))); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("by offset: want an error containing %q, got %v", tc.want, err)
			}
			_, err := NewReader(bytes.NewReader(b))
			if tc.sizeOnly {
				if err != nil {
					t.Errorf("stream: the real size is unknown, yet: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("stream: want an error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRetiredMagicsNamed: the four formats this container replaced are refused
// by name, with the way out; anything else is just not an index file.
func TestRetiredMagicsNamed(t *testing.T) {
	for _, old := range retired {
		b := append([]byte(old+"\n"), make([]byte, 64)...)
		_, err := NewReader(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), old+" is a retired index format") || !strings.Contains(err.Error(), "re-save") {
			t.Errorf("%s: %v", old, err)
		}
	}
	_, err := NewReader(bytes.NewReader(append([]byte("MSIGCLUST1\n"), make([]byte, 64)...)))
	if err == nil || !strings.Contains(err.Error(), "MSIGCLUST1") || strings.Contains(err.Error(), "retired") {
		t.Errorf("an older magic still: %v", err)
	}
}

// TestStreamTruncation: a stream cut inside a section, or in the padding
// before one, is an error when that section is read — and ReadAll's buffer
// follows the bytes that arrive, not the length the table claims.
func TestStreamTruncation(t *testing.T) {
	file, secs := sample(t)
	sr, err := NewReader(bytes.NewReader(file[:secs[2].Off+3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadAll(2); err == nil || !strings.Contains(err.Error(), `"seqs" section truncated (3 of 7 bytes)`) {
		t.Errorf("cut inside a section: %v", err)
	}
	sr, err = NewReader(bytes.NewReader(file[:secs[2].Off-100]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadAll(2); err == nil || !strings.Contains(err.Error(), `truncated before its "seqs" section`) {
		t.Errorf("cut inside the padding: %v", err)
	}
	// A terabyte section claimed over a few bytes of data.
	huge := append([]byte(nil), file[:secs[2].Off+3]...)
	binary.LittleEndian.PutUint64(huge[len(Magic)+4:], 1<<41)
	binary.LittleEndian.PutUint64(huge[len(Magic)+16+entryLen*2+12:], 1<<40)
	binary.LittleEndian.PutUint64(huge[len(Magic)+16+entryLen*3+4:], Page+1<<40)
	sr, err = NewReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadAll(2); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("huge claimed section: %v", err)
	}
}
