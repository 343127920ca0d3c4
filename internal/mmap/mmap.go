// Package mmap opens a file as read-only bytes.
//
// On unix builds Open maps the whole file PROT_READ/MAP_SHARED, so Bytes is
// the page cache itself and the resident set is whatever the kernel has
// faulted in — the caller never pays for bytes it does not touch. On other
// platforms, or when mapping fails (an empty file cannot be mapped), Open
// reads the file into the heap: the same bytes, without the laziness.
package mmap

import (
	"io"
	"os"
)

// Mapping is a read-only view of a file's bytes.
type Mapping struct {
	data   []byte
	mapped bool // data is a memory map, unmapped by Close
}

// Open maps path read-only, or reads it whole where it cannot be mapped.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives its descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if size := fi.Size(); size > 0 {
		if data, err := mapFile(f, size); err == nil {
			return &Mapping{data: data, mapped: true}, nil
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the file's bytes, valid until Close. They must not be written.
func (m *Mapping) Bytes() []byte { return m.data }

// Close unmaps the file (when mapped). Safe to call more than once.
func (m *Mapping) Close() error {
	var err error
	if m.mapped {
		err = unmapFile(m.data)
	}
	m.data, m.mapped = nil, false
	return err
}
