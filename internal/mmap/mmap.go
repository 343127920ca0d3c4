// Package mmap provides a tiny read-only memory-mapped file wrapper with a
// portable io.ReaderAt fallback.
//
// On unix builds Open maps the whole file PROT_READ/MAP_SHARED, so ReadAt is
// a copy from the page cache and the resident set is whatever the kernel has
// faulted in — the caller never pays for bytes it does not touch. On other
// platforms (or when mapping fails) the same API is served by plain
// os.File.ReadAt, trading laziness for portability without changing callers.
package mmap

import (
	"fmt"
	"io"
	"os"
)

// Mapping is a read-only view of a file, read through ReadAt.
type Mapping struct {
	f    *os.File
	size int64
	data []byte // non-nil iff mapped
}

var _ io.ReaderAt = (*Mapping)(nil)

// Open maps path read-only. When the platform (or the file — empty files
// cannot be mapped) does not support mmap the Mapping transparently falls
// back to pread-style ReadAt on the open file.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &Mapping{f: f, size: fi.Size()}
	if m.size > 0 {
		if data, err := mapFile(f, m.size); err == nil {
			m.data = data
		}
	}
	return m, nil
}

// Size returns the length of the underlying file at Open time.
func (m *Mapping) Size() int64 { return m.size }

// Mapped reports whether the file is served by a real memory map (true) or
// by the ReadAt fallback (false).
func (m *Mapping) Mapped() bool { return m.data != nil }

// ReadAt implements io.ReaderAt over the mapping (or the file fallback).
func (m *Mapping) ReadAt(p []byte, off int64) (int, error) {
	if m.data == nil {
		return m.f.ReadAt(p, off)
	}
	if off < 0 {
		return 0, fmt.Errorf("mmap: negative offset %d", off)
	}
	if off >= m.size {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close unmaps (when mapped) and closes the file. Safe to call once.
func (m *Mapping) Close() error {
	var err error
	if m.data != nil {
		err = unmapFile(m.data)
		m.data = nil
	}
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}
