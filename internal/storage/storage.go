// Package storage holds the on-disk encodings of entity ST-cell sequences
// and the two readers over them.
//
// Store is the disk-resident record store of the memory-sensitivity
// experiments of Section 7.6 of "Top-k Queries over Digital Traces": entity
// sequences are serialized into a block file, ordered by their MinSigTree
// leaf position (so closely associated entities tend to share blocks), and
// read back through a fixed-capacity LRU buffer pool. The pool capacity is
// the experiment's "memory size"; optionally each miss pays a configurable
// latency to stand in for the thesis' EBS HDD. Store implements
// core.SequenceSource, so a MinSigTree can run queries directly against it.
//
// SpanReader serves the sequence region of a saved index image (typically a
// memory mapping) as a trace.Backing: it decodes each entity once, on first
// read, and keeps the result. Every span is bounds-checked against the
// backing size at open time, so a truncated file fails with the offending
// entity named instead of panicking mid-query.
package storage

import (
	"fmt"
	"os"
	"sync"
	"time"

	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// PoolStats counts buffer-pool traffic.
type PoolStats struct {
	Hits   int
	Misses int
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Store is a block view of serialized entity sequences behind an LRU buffer
// pool. Safe for concurrent readers.
type Store struct {
	ix        *spindex.Index
	f         *os.File
	blockSize int
	fileSize  int64
	dir       map[trace.EntityID]Span
	order     []trace.EntityID

	mu          sync.Mutex
	pool        map[int64][]byte
	lruSeq      map[int64]uint64
	tick        uint64
	capacity    int
	missPenalty time.Duration
	stats       PoolStats
}

// Options configures a store.
type Options struct {
	// BlockSize in bytes; defaults to 4096.
	BlockSize int
	// CapacityBlocks is the buffer-pool size; 0 means "all blocks"
	// (memory fraction 1.0).
	CapacityBlocks int
	// MissPenalty is an artificial latency charged per block miss,
	// standing in for the thesis' HDD seek+read. Zero disables it.
	MissPenalty time.Duration
}

// Build serializes the sequences of the given entities (fetched from src,
// in the given order) into a new block file at path and opens a store over
// it. Order matters: pass MinSigTree leaf order so co-associated entities
// cluster on blocks, as the paper does.
func Build(path string, ix *spindex.Index, src interface {
	Get(trace.EntityID) *trace.Sequences
}, order []trace.EntityID, opts Options) (*Store, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = 4096
	}
	if opts.BlockSize < 64 {
		return nil, fmt.Errorf("storage: block size %d < 64", opts.BlockSize)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	st := &Store{
		ix:        ix,
		f:         f,
		blockSize: opts.BlockSize,
		dir:       make(map[trace.EntityID]Span, len(order)),
		order:     append([]trace.EntityID(nil), order...),
		pool:      make(map[int64][]byte),
		lruSeq:    make(map[int64]uint64),
	}
	var off int64
	for _, e := range order {
		s := src.Get(e)
		if s == nil {
			f.Close()
			os.Remove(path)
			return nil, fmt.Errorf("storage: entity %d missing from source", e)
		}
		buf := EncodeSequences(s)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return nil, err
		}
		st.dir[e] = Span{Off: off, Len: int32(len(buf))}
		off += int64(len(buf))
	}
	st.fileSize = off
	st.capacity = opts.CapacityBlocks
	if st.capacity <= 0 {
		st.capacity = st.TotalBlocks()
	}
	st.missPenalty = opts.MissPenalty
	return st, nil
}

// Close releases the block file.
func (st *Store) Close() error { return st.f.Close() }

// Len returns the number of stored entities.
func (st *Store) Len() int { return len(st.dir) }

// Entities returns the stored entity IDs in file order.
func (st *Store) Entities() []trace.EntityID { return st.order }

// TotalBlocks returns the number of blocks in the file.
func (st *Store) TotalBlocks() int {
	if st.fileSize == 0 {
		return 0
	}
	return int((st.fileSize + int64(st.blockSize) - 1) / int64(st.blockSize))
}

// DataBytes returns the raw size of the serialized data.
func (st *Store) DataBytes() int64 { return st.fileSize }

// SetMemoryFraction sizes the buffer pool to the given fraction of the data
// (Figure 7.6's horizontal axis), evicting any excess, and resets pool
// statistics.
func (st *Store) SetMemoryFraction(frac float64) {
	n := int(frac * float64(st.TotalBlocks()))
	if n < 1 {
		n = 1
	}
	st.SetCapacityBlocks(n)
}

// SetCapacityBlocks sets the pool capacity in blocks and resets statistics.
func (st *Store) SetCapacityBlocks(n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n < 1 {
		n = 1
	}
	st.capacity = n
	for len(st.pool) > st.capacity {
		st.evictLocked()
	}
	st.stats = PoolStats{}
}

// Stats returns a snapshot of pool statistics.
func (st *Store) Stats() PoolStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// Get implements core.SequenceSource: it reads the entity's bytes through
// the buffer pool and decodes them. Returns nil for unknown entities.
func (st *Store) Get(e trace.EntityID) *trace.Sequences {
	sp, ok := st.dir[e]
	if !ok {
		return nil
	}
	buf := make([]byte, sp.Len)
	bs := int64(st.blockSize)
	for rel := int64(0); rel < int64(sp.Len); {
		abs := sp.Off + rel
		blk := abs / bs
		block := st.block(blk)
		inOff := abs % bs
		n := copy(buf[rel:], block[inOff:])
		rel += int64(n)
	}
	s, err := DecodeSequences(st.ix, buf)
	if err != nil {
		panic(fmt.Sprintf("storage: corrupt record for entity %d: %v", e, err))
	}
	return s
}

// block returns the content of block id via the pool.
func (st *Store) block(id int64) []byte {
	st.mu.Lock()
	if b, ok := st.pool[id]; ok {
		st.stats.Hits++
		st.tick++
		st.lruSeq[id] = st.tick
		st.mu.Unlock()
		return b
	}
	st.stats.Misses++
	st.mu.Unlock()

	// Read outside the lock; duplicate reads on a race are harmless.
	b := make([]byte, st.blockSize)
	n, err := st.f.ReadAt(b, id*int64(st.blockSize))
	if err != nil && n == 0 {
		panic(fmt.Sprintf("storage: read block %d: %v", id, err))
	}
	b = b[:n]
	if st.missPenalty > 0 {
		time.Sleep(st.missPenalty)
	}

	st.mu.Lock()
	for len(st.pool) >= st.capacity {
		st.evictLocked()
	}
	st.pool[id] = b
	st.tick++
	st.lruSeq[id] = st.tick
	st.mu.Unlock()
	return b
}

// evictLocked removes the least-recently-used block. Caller holds mu.
func (st *Store) evictLocked() {
	var victim int64 = -1
	var oldest uint64
	for id, seq := range st.lruSeq {
		if victim == -1 || seq < oldest {
			victim, oldest = id, seq
		}
	}
	if victim >= 0 {
		delete(st.pool, victim)
		delete(st.lruSeq, victim)
	}
}
