package mmap

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestOpenBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 512)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(m.Bytes(), payload) {
		t.Fatalf("Bytes is %d bytes, not the file's %d", len(m.Bytes()), len(payload))
	}
}

// TestOpenEmptyFile: an empty file cannot be mapped; it opens as no bytes.
func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Bytes()) != 0 {
		t.Fatalf("empty file opened as %d bytes", len(m.Bytes()))
	}
}

func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bin")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Second close must not panic or unmap twice.
	m.Close()
}
