package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// MSIGMAP1 is the memory-mappable sibling of MSIGTREE2. Where that is a
// decode-the-whole-stream format (the loader re-stages every entity's
// sequences into the heap), MSIGMAP1 lays the file out so a loader can
// syscall.Mmap it read-only and serve queries straight off the mapping:
//
//	page 0          header: magic, page size, claimed file size, the ten
//	                MSIGTREE2 scalar words, and a three-entry section table
//	                (entities, names, seqs), each page-aligned
//	entities        fixed-width records: id, name span, sequence span and
//	                the m-level signature digest — everything the tree
//	                replay needs, scanned once at load
//	names           concatenated entity names (tiny; decoded eagerly for
//	                the name registry)
//	seqs            concatenated storage.EncodeSequences blobs, read
//	                lazily through a storage.Store buffer pool, so only
//	                queried entities' pages ever fault in
//
// Restart cost is therefore O(entities · levels) for the signature replay —
// no sequence decoding, no visit re-ingest — and the resident set is
// bounded by the hot entities, not the index size.
const mappedMagic = "MSIGMAP1\n"

const (
	mappedHeaderLen = len(mappedMagic) + 4 + 8 + 10*8 + 3*16 // 149
	mappedMinPage   = 256
	mappedMaxPage   = 1 << 20
	mappedEntFixed  = 32 // id(4) nameOff(8) nameLen(2) pad(2) seqOff(8) seqLen(4) folded(4)
	DefaultMapPage  = 4096
	maxMappedNH     = 1 << 20
	maxMappedEntCap = 1 << 20 // allocation hint cap; real bound is the file size
)

// MappedEntity is one entity as described by a mapped snapshot's entity
// table: identity, name, signature digest, the visit count the signature
// covers (FoldedUnknown when the entity was dirty at save time), and where
// in the file its serialized sequences live (absolute offsets).
type MappedEntity struct {
	ID     trace.EntityID
	Name   string
	Folded uint32
	Sig    sighash.EntitySig
	Seq    storage.Span // absolute span of the storage.EncodeSequences blob
}

// MappedSnapshot is a validated view over an MSIGMAP1 file: the header
// scalars, the decoded entity table, and the bounds of the lazily-read
// sequence region. It holds no reference to the backing reader — callers
// thread that (usually an mmap.Mapping) to storage.OpenSpans themselves.
type MappedSnapshot struct {
	Info     *SnapshotInfo
	PageSize int
	Entities []MappedEntity
	SeqsOff  int64 // absolute offset of the sequence region
	SeqsLen  int64
}

func alignUp(v, page int64) int64 {
	if rem := v % page; rem != 0 {
		return v + page - rem
	}
	return v
}

// WriteMappedSnapshot serializes the index in the MSIGMAP1 format,
// fetching each entity's sequences from src (pass the store the tree was
// built over). pageSize 0 means DefaultMapPage. info supplies each
// entity's registry name and the visit count its signature covers (pass
// FoldedUnknown for an entity dirty at save time). Returns the bytes
// written; the output is deterministic for a given tree+store.
func (t *Tree) WriteMappedSnapshot(w io.Writer, meta SnapshotMeta, pageSize int, src SequenceSource, info func(e trace.EntityID) (name string, folded uint32)) (int64, error) {
	fam, ok := t.hasher.(*sighash.Family)
	if !ok {
		return 0, fmt.Errorf("core: only Family-hashed trees can be persisted, have %T", t.hasher)
	}
	if pageSize == 0 {
		pageSize = DefaultMapPage
	}
	if pageSize < mappedMinPage || pageSize > mappedMaxPage {
		return 0, fmt.Errorf("core: mapped page size %d outside [%d,%d]", pageSize, mappedMinPage, mappedMaxPage)
	}
	if info == nil {
		return 0, fmt.Errorf("core: WriteMappedSnapshot needs an entity info callback")
	}
	entities := t.sigs.entities()
	entSize := mappedEntFixed + 12*t.m

	// Layout pass: name and sequence-blob sizes fix every offset before a
	// byte is written, so the file streams out without buffering regions.
	var namesLen, seqsLen int64
	seqSizes := make([]int64, len(entities))
	entNames := make([]string, len(entities))
	entFolded := make([]uint32, len(entities))
	for i, e := range entities {
		n, folded := info(e)
		if len(n) > math.MaxUint16 {
			return 0, fmt.Errorf("core: entity %d name is %d bytes, the format caps names at %d", e, len(n), math.MaxUint16)
		}
		entNames[i], entFolded[i] = n, folded
		namesLen += int64(len(n))
		s := src.Get(e)
		if s == nil {
			return 0, fmt.Errorf("core: entity %d has no sequences in the source", e)
		}
		seqSizes[i] = int64(storage.EncodedSize(s))
		seqsLen += seqSizes[i]
	}
	page := int64(pageSize)
	entitiesOff := page
	entitiesLen := int64(len(entities)) * int64(entSize)
	namesOff := alignUp(entitiesOff+entitiesLen, page)
	seqsOff := alignUp(namesOff+namesLen, page)
	fileSize := seqsOff + seqsLen

	var flags uint64
	if meta.Jaccard {
		flags |= flagJaccard
	}
	hdr := make([]byte, pageSize)
	copy(hdr, mappedMagic)
	off := len(mappedMagic)
	binary.LittleEndian.PutUint32(hdr[off:], uint32(pageSize))
	off += 4
	binary.LittleEndian.PutUint64(hdr[off:], uint64(fileSize))
	off += 8
	for _, v := range []uint64{
		uint64(t.m),
		uint64(fam.NumFuncs()),
		fam.Seed(),
		uint64(fam.Horizon()),
		uint64(len(entities)),
		uint64(meta.TimeUnit),
		uint64(meta.EpochNanos),
		math.Float64bits(meta.MeasureU),
		math.Float64bits(meta.MeasureV),
		flags,
	} {
		binary.LittleEndian.PutUint64(hdr[off:], v)
		off += 8
	}
	for _, sec := range [][2]int64{{entitiesOff, entitiesLen}, {namesOff, namesLen}, {seqsOff, seqsLen}} {
		binary.LittleEndian.PutUint64(hdr[off:], uint64(sec[0]))
		binary.LittleEndian.PutUint64(hdr[off+8:], uint64(sec[1]))
		off += 16
	}

	cw := &countingWriter{w: w}
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	// Entity table.
	rec := make([]byte, entSize)
	var nameOff, seqOff int64
	for i, e := range entities {
		n := entNames[i]
		sig, _ := t.sigs.get(e)
		binary.LittleEndian.PutUint32(rec[0:], uint32(e))
		binary.LittleEndian.PutUint64(rec[4:], uint64(nameOff))
		binary.LittleEndian.PutUint16(rec[12:], uint16(len(n)))
		binary.LittleEndian.PutUint16(rec[14:], 0)
		binary.LittleEndian.PutUint64(rec[16:], uint64(seqOff))
		binary.LittleEndian.PutUint32(rec[24:], uint32(seqSizes[i]))
		binary.LittleEndian.PutUint32(rec[28:], entFolded[i])
		for l := 0; l < t.m; l++ {
			binary.LittleEndian.PutUint32(rec[mappedEntFixed+12*l:], sig[l].Routing)
			binary.LittleEndian.PutUint64(rec[mappedEntFixed+12*l+4:], sig[l].Value)
		}
		if _, err := cw.Write(rec); err != nil {
			return cw.n, err
		}
		nameOff += int64(len(n))
		seqOff += seqSizes[i]
	}
	if err := cw.pad(namesOff); err != nil {
		return cw.n, err
	}
	// Names region.
	for _, n := range entNames {
		if _, err := io.WriteString(cw, n); err != nil {
			return cw.n, err
		}
	}
	if err := cw.pad(seqsOff); err != nil {
		return cw.n, err
	}
	// Sequence region: encode one entity at a time — the only transient
	// allocation is the current blob, so writing stays bounded even when
	// the store itself is disk- or mmap-backed.
	for i, e := range entities {
		blob := storage.EncodeSequences(src.Get(e))
		if int64(len(blob)) != seqSizes[i] {
			return cw.n, fmt.Errorf("core: entity %d sequences changed size during write (%d != %d); source mutated concurrently?", e, len(blob), seqSizes[i])
		}
		if _, err := cw.Write(blob); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// pad writes zeros up to absolute offset off.
func (cw *countingWriter) pad(off int64) error {
	if cw.n > off {
		return fmt.Errorf("core: mapped writer overran region boundary (%d > %d)", cw.n, off)
	}
	zeros := make([]byte, 4096)
	for cw.n < off {
		n := off - cw.n
		if n > int64(len(zeros)) {
			n = int64(len(zeros))
		}
		if _, err := cw.Write(zeros[:n]); err != nil {
			return err
		}
	}
	return nil
}

// OpenMappedSnapshot validates an MSIGMAP1 file served by r (size is the
// backing's real length) and decodes its header and entity table. It never
// trusts a stored offset: the claimed file size must equal the real one,
// regions must be page-aligned and in bounds, the entity table must be
// exactly count records, and every name/sequence span must fall inside its
// region — so a truncated or corrupt file is a descriptive error here, not
// a SIGBUS when a query faults a page that is not there.
func OpenMappedSnapshot(r io.ReaderAt, size int64, ix *spindex.Index) (*MappedSnapshot, error) {
	if size < int64(mappedHeaderLen) {
		return nil, fmt.Errorf("core: %d bytes is too short for a mapped snapshot header (%d)", size, mappedHeaderLen)
	}
	hdr := make([]byte, mappedHeaderLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("core: reading mapped snapshot header: %w", err)
	}
	if string(hdr[:len(mappedMagic)]) != mappedMagic {
		return nil, fmt.Errorf("core: not a mapped MinSigTree snapshot (magic %q)", hdr[:len(mappedMagic)])
	}
	off := len(mappedMagic)
	pageSize := int(binary.LittleEndian.Uint32(hdr[off:]))
	off += 4
	if pageSize < mappedMinPage || pageSize > mappedMaxPage {
		return nil, fmt.Errorf("core: corrupt mapped snapshot: page size %d outside [%d,%d]", pageSize, mappedMinPage, mappedMaxPage)
	}
	claimed := binary.LittleEndian.Uint64(hdr[off:])
	off += 8
	if claimed > math.MaxInt64 || int64(claimed) != size {
		return nil, fmt.Errorf("core: mapped snapshot is %d bytes but its header claims %d (truncated or corrupt file)", size, claimed)
	}
	scalars := make([]uint64, 10)
	for i := range scalars {
		scalars[i] = binary.LittleEndian.Uint64(hdr[off:])
		off += 8
	}
	type section struct{ off, length int64 }
	secs := make([]section, 3)
	secNames := []string{"entities", "names", "seqs"}
	for i := range secs {
		so := binary.LittleEndian.Uint64(hdr[off:])
		sl := binary.LittleEndian.Uint64(hdr[off+8:])
		off += 16
		if so > math.MaxInt64 || sl > math.MaxInt64 {
			return nil, fmt.Errorf("core: corrupt mapped snapshot: %s section offset/length overflows", secNames[i])
		}
		secs[i] = section{int64(so), int64(sl)}
		if secs[i].off%int64(pageSize) != 0 {
			return nil, fmt.Errorf("core: corrupt mapped snapshot: %s region offset %d is not %d-page-aligned", secNames[i], secs[i].off, pageSize)
		}
		if secs[i].off < int64(pageSize) || secs[i].off+secs[i].length > size {
			return nil, fmt.Errorf("core: corrupt mapped snapshot: %s region [%d,%d) outside file of %d bytes", secNames[i], secs[i].off, secs[i].off+secs[i].length, size)
		}
	}

	m, nh, seed, count := int(scalars[0]), int(scalars[1]), scalars[2], int(scalars[4])
	if m != ix.Height() {
		return nil, fmt.Errorf("core: mapped snapshot has %d levels, sp-index has %d", m, ix.Height())
	}
	if nh < 1 || nh > maxMappedNH {
		return nil, fmt.Errorf("core: corrupt mapped snapshot header: %d hash functions", scalars[1])
	}
	if scalars[3] < 1 || scalars[3] > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt mapped snapshot header: horizon %d", scalars[3])
	}
	horizon := trace.Time(scalars[3])
	if count < 0 || scalars[4] > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt mapped snapshot header: %d entities", scalars[4])
	}
	if scalars[9]&^uint64(flagJaccard) != 0 {
		return nil, fmt.Errorf("core: mapped snapshot header has unknown flag bits %#x (written by a newer version?)", scalars[9])
	}
	meta := SnapshotMeta{
		TimeUnit:   time.Duration(int64(scalars[5])),
		EpochNanos: int64(scalars[6]),
		MeasureU:   math.Float64frombits(scalars[7]),
		MeasureV:   math.Float64frombits(scalars[8]),
		Jaccard:    scalars[9]&flagJaccard != 0,
	}
	if meta.TimeUnit <= 0 {
		return nil, fmt.Errorf("core: corrupt mapped snapshot header: non-positive time unit %d", meta.TimeUnit)
	}

	entSize := mappedEntFixed + 12*m
	ents, names, seqs := secs[0], secs[1], secs[2]
	if ents.length != int64(count)*int64(entSize) {
		return nil, fmt.Errorf("core: corrupt mapped snapshot: entity table is %d bytes, %d entities need %d (truncated section table?)", ents.length, count, int64(count)*int64(entSize))
	}
	table := make([]byte, ents.length)
	if _, err := r.ReadAt(table, ents.off); err != nil {
		return nil, fmt.Errorf("core: reading mapped entity table: %w", err)
	}
	nameBytes := make([]byte, names.length)
	if names.length > 0 {
		if _, err := r.ReadAt(nameBytes, names.off); err != nil {
			return nil, fmt.Errorf("core: reading mapped name region: %w", err)
		}
	}

	hint := count
	if hint > maxMappedEntCap {
		hint = maxMappedEntCap
	}
	out := &MappedSnapshot{
		Info: &SnapshotInfo{
			NH:       nh,
			Seed:     seed,
			Horizon:  horizon,
			Entities: count,
			Meta:     meta,
		},
		PageSize: pageSize,
		Entities: make([]MappedEntity, 0, hint),
		SeqsOff:  seqs.off,
		SeqsLen:  seqs.length,
	}
	seen := make(map[trace.EntityID]bool, hint)
	for i := 0; i < count; i++ {
		rec := table[i*entSize : (i+1)*entSize]
		id := trace.EntityID(binary.LittleEndian.Uint32(rec[0:]))
		nameOff := int64(binary.LittleEndian.Uint64(rec[4:]))
		nameLen := int64(binary.LittleEndian.Uint16(rec[12:]))
		seqOff := int64(binary.LittleEndian.Uint64(rec[16:]))
		seqLen := int64(binary.LittleEndian.Uint32(rec[24:]))
		folded := binary.LittleEndian.Uint32(rec[28:])
		if nameOff < 0 || nameOff+nameLen > names.length {
			return nil, fmt.Errorf("core: mapped entity %d: name span [%d,%d) outside name region of %d bytes", id, nameOff, nameOff+nameLen, names.length)
		}
		if seqOff < 0 || seqOff+seqLen > seqs.length {
			return nil, fmt.Errorf("core: mapped entity %d: sequence span [%d,%d) outside sequence region of %d bytes", id, seqOff, seqOff+seqLen, seqs.length)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: mapped snapshot repeats entity %d", id)
		}
		seen[id] = true
		sig := make(sighash.EntitySig, m)
		for l := 0; l < m; l++ {
			sig[l].Routing = binary.LittleEndian.Uint32(rec[mappedEntFixed+12*l:])
			sig[l].Value = binary.LittleEndian.Uint64(rec[mappedEntFixed+12*l+4:])
			if int(sig[l].Routing) >= nh {
				return nil, fmt.Errorf("core: mapped entity %d: routing %d ≥ nh %d", id, sig[l].Routing, nh)
			}
		}
		out.Entities = append(out.Entities, MappedEntity{
			ID:     id,
			Name:   string(nameBytes[nameOff : nameOff+nameLen]),
			Folded: folded,
			Sig:    sig,
			Seq:    storage.Span{Off: seqs.off + seqOff, Len: int32(seqLen)},
		})
	}
	return out, nil
}

// BuildTree replays the mapped signature digests into a MinSigTree over
// src (normally a trace store backed by the mapped sequence region). The
// replay is O(entities · levels) and never touches src — sequence pages
// fault in lazily at query time; spans were already bounds-checked at open.
// For the same reason the tree, and every generation Derive and Clone take
// from it, carries no level-1 cell index: signatures alone, until a Build.
func (ms *MappedSnapshot) BuildTree(ix *spindex.Index, src SequenceSource) (*Tree, error) {
	fam, err := sighash.NewFamily(ix, ms.Info.Horizon, ms.Info.NH, ms.Info.Seed)
	if err != nil {
		return nil, err
	}
	m := ix.Height()
	hint := len(ms.Entities)
	if hint > maxMappedEntCap {
		hint = maxMappedEntCap
	}
	t := &Tree{
		ix:     ix,
		hasher: fam,
		src:    src,
		root:   &node{},
		sigs:   newSigTable(hint),
		m:      m,
	}
	for _, me := range ms.Entities {
		if _, dup := t.sigs.get(me.ID); dup {
			return nil, fmt.Errorf("core: mapped snapshot repeats entity %d", me.ID)
		}
		t.insertWithSig(me.ID, me.Sig)
	}
	return t, nil
}
