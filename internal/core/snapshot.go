package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// Index persistence: one image layout (sections of a secfile container),
// written by Postings.WriteSnapshot and read by DecodeSnapshot.
//
//	meta      seven u64 words: levels, entity count, time unit, epoch,
//	          measure exponents u and v, flags
//	names     the concatenated entity names
//	etab      the entity table, row i entity i's: one fixed-width record per
//	          entity — id, name span, sequence span, covered visit count —
//	          closed by a CRC32C
//	size      each entity's level sizes, m bytes in the entity table's
//	          encoding (Postings), in etab order, closed by a CRC32C
//	cells     the level-1 cell index (CSR), closed by a CRC32C
//	seqs      the concatenated storage.EncodeSequences blobs, page-aligned
//
// The image is served in place off a read-only mapping (or any ReaderAt),
// entity i at row i, the sizes and cell index adopted as stored, each
// entity's sequences read and decoded once, when a query first touches them
// (Snapshot.MappedPostings over a storage.SpanReader). A structural slip
// anywhere trips a bounds check; a flipped ID, span, count or size in the
// entity table, or a posting missing from the cell index, would only show as
// a wrong answer — so those sections carry a checksum.

// FoldedUnknown is the folded-count sentinel for an entity whose exact
// covered visit count was unknown at save time (it had visits newer than the
// saved index). Readers must treat such an entity's stored state as stale:
// usable only after re-indexing from current data, never served as-is.
const FoldedUnknown = ^uint32(0)

const (
	// flagJaccard is the one assigned bit of the meta flags word. Unknown
	// bits are a read error: a future writer that sets one changed semantics
	// this reader does not understand.
	flagJaccard = 1 << 0
	metaWords   = 7
	entSize     = 32 // id(4) nameOff(8) nameLen(2) pad(2) seqOff(8) seqLen(4) folded(4)
)

// crc32c checksums the entity table and the cells section (the table is built
// on first use).
func crc32c(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// SnapshotMeta carries the engine-level scalars stamped into the image: how
// the visit data was discretized and scored, so a loader can verify its own
// configuration matches instead of silently answering under different
// semantics.
type SnapshotMeta struct {
	TimeUnit   time.Duration // base temporal unit visits were discretized into
	EpochNanos int64         // observation-horizon start, Unix nanoseconds
	MeasureU   float64       // paper-measure level exponent (Eq 7.1)
	MeasureV   float64       // paper-measure duration exponent
	Jaccard    bool          // uniformly weighted Jaccard measure instead of Eq 7.1
}

// SnapshotEntity is one row of an image's entity table; row i is entity i's.
type SnapshotEntity struct {
	Name   string
	Folded uint32       // visits the saved index covers; FoldedUnknown for entities dirty at save time
	Seq    storage.Span // the entity's sequence blob, absolute
}

// Snapshot is a decoded, validated image. It holds no reference to the reader
// it came from.
type Snapshot struct {
	Meta     SnapshotMeta
	Entities []SnapshotEntity // Entities[e] is entity e's row
	sizes    []byte           // the stored level sizes, m bytes an entity in table order
	cells    *cellIndex       // the stored cell index
}

// WriteSnapshot serializes the index with every entity's sequences, read from
// seqs — the store the index was built over. info supplies each entity's name
// and the visit count the index covers (FoldedUnknown for an entity whose
// indexed state is stale relative to its latest visits). The indexed IDs must
// be 0..n−1, the rows of the entity table, and names longer than 64 KiB are
// rejected. Returns the bytes written; the output is deterministic for a
// given index and store.
func (p *Postings) WriteSnapshot(w io.Writer, meta SnapshotMeta, seqs SequenceSource, info func(e trace.EntityID) (name string, folded uint32)) (int64, error) {
	if seqs == nil || info == nil {
		return 0, fmt.Errorf("core: WriteSnapshot needs the sequence source and an entity info callback")
	}
	// The sections before seqs are small (under 100 bytes an entity) and are
	// assembled whole; their sizes and the blobs' fix the layout before a byte
	// is written, so the sequences stream out one entity at a time.
	entities := p.Entities()
	var flags uint64
	if meta.Jaccard {
		flags |= flagJaccard
	}
	var head, names []byte
	for _, v := range [metaWords]uint64{
		uint64(p.m), uint64(len(entities)), uint64(meta.TimeUnit), uint64(meta.EpochNanos),
		math.Float64bits(meta.MeasureU), math.Float64bits(meta.MeasureV), flags,
	} {
		head = binary.LittleEndian.AppendUint64(head, v)
	}
	ents := make([]byte, 0, len(entities)*entSize+4)
	var sizes []byte
	var seqsLen int64
	for i, e := range entities {
		if int(e) != i {
			return 0, fmt.Errorf("core: entity table row %d would hold entity %d: an image holds entities 0..n−1, and entity %d is not indexed", i, e, i)
		}
		name, folded := info(e)
		if len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("core: entity %d name is %d bytes, the format caps names at %d", e, len(name), math.MaxUint16)
		}
		s := seqs.Get(e)
		if s == nil {
			return 0, fmt.Errorf("core: entity %d has no sequences in the source", e)
		}
		seqLen := storage.EncodedSize(s)
		sizes = levelSizes(sizes, s)
		ents = binary.LittleEndian.AppendUint32(ents, uint32(e))
		ents = binary.LittleEndian.AppendUint64(ents, uint64(len(names)))
		ents = binary.LittleEndian.AppendUint32(ents, uint32(len(name))) // u16 length, u16 zero pad
		ents = binary.LittleEndian.AppendUint64(ents, uint64(seqsLen))
		ents = binary.LittleEndian.AppendUint32(ents, uint32(seqLen))
		ents = binary.LittleEndian.AppendUint32(ents, folded)
		names = append(names, name...)
		seqsLen += int64(seqLen)
	}
	ents = binary.LittleEndian.AppendUint32(ents, crc32c(ents))
	parts := [][]byte{head, names, ents, binary.LittleEndian.AppendUint32(sizes, crc32c(sizes)), p.encodeCells()}
	secs := []secfile.Section{{Kind: secfile.Meta}, {Kind: secfile.Names}, {Kind: secfile.Entities}, {Kind: secfile.Sizes}, {Kind: secfile.Cells}, {Kind: secfile.Seqs, Len: seqsLen}}
	for i, part := range parts {
		secs[i].Len = int64(len(part))
	}
	sw, err := secfile.NewWriter(w, secs)
	if err != nil {
		return 0, err
	}
	for _, part := range parts {
		if _, err := sw.Write(part); err != nil {
			return 0, err
		}
	}
	for i, e := range entities {
		blob := storage.EncodeSequences(seqs.Get(e))
		if want := binary.LittleEndian.Uint32(ents[i*entSize+24:]); uint32(len(blob)) != want {
			return 0, fmt.Errorf("core: entity %d sequences changed size during write (%d != %d); source mutated concurrently?", e, len(blob), want)
		}
		if _, err := sw.Write(blob); err != nil {
			return 0, err
		}
	}
	return sw.Close()
}

// encodeCells serializes the cell index as the cells section: the pairs of
// base and added, minus those of the removed entities (the stale pairs of
// entities still indexed stay — the index is a superset by contract), as
// count(keys) u64 · count(posts) u64 · keys u64 · offs u32 · posts u32 ·
// CRC32C of all of it.
func (p *Postings) encodeCells() []byte {
	ci := p.cells
	if ci.added.Writes() > 0 || p.removed {
		ci = seal(ci.pairs(func(e trace.EntityID) bool { return p.removed && !p.Contains(e) }))
	}
	buf := make([]byte, 0, 16+8*len(ci.keys)+4*len(ci.offs)+4*len(ci.posts)+4)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ci.keys)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ci.posts)))
	for _, c := range ci.keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	for _, o := range ci.offs {
		buf = binary.LittleEndian.AppendUint32(buf, o)
	}
	for _, e := range ci.posts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32c(buf))
}

// checksummed splits a section closed by a CRC32C into its body, verified.
func checksummed(b []byte, what string) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: corrupt snapshot: %s of %d bytes", what, len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32c(body); got != sum {
		return nil, fmt.Errorf("core: corrupt snapshot: %s checksum %#x, stored %#x", what, got, sum)
	}
	return body, nil
}

// decodeCells validates a cells section — checksum first, then every
// structural property a search relies on: keys strictly ascending, offsets
// non-decreasing from 0 to the posting count, every list strictly ascending,
// every posted ID one of the entity table's 0..count−1.
func decodeCells(b []byte, count int) (*cellIndex, error) {
	body, err := checksummed(b, "cell index")
	if err != nil {
		return nil, err
	}
	if len(body) < 20 {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index of %d bytes", len(b))
	}
	nk, np := binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:])
	// Both counts are bounded by the bytes present before they size anything.
	if nk > uint64(len(body))/12 || np > uint64(len(body))/4 || 16+8*nk+4*(nk+1)+4*np != uint64(len(body)) {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index of %d bytes claims %d cells and %d postings", len(b), nk, np)
	}
	ci := &cellIndex{keys: make([]trace.Cell, nk), offs: make([]uint32, nk+1), posts: make([]trace.EntityID, np), maxID: -1}
	keys, offs, posts := body[16:], body[16+8*nk:], body[16+8*nk+4*(nk+1):]
	for i := range ci.offs {
		ci.offs[i] = binary.LittleEndian.Uint32(offs[4*i:])
	}
	if ci.offs[0] != 0 || uint64(ci.offs[nk]) != np {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index offsets span [%d,%d], the postings [0,%d]", ci.offs[0], ci.offs[nk], np)
	}
	for i := range ci.keys {
		ci.keys[i] = trace.Cell(binary.LittleEndian.Uint64(keys[8*i:]))
		if i > 0 && ci.keys[i-1] >= ci.keys[i] {
			return nil, fmt.Errorf("core: corrupt snapshot: cell index keys not ascending at %d", i)
		}
		lo, hi := ci.offs[i], ci.offs[i+1]
		if lo > hi || uint64(hi) > np {
			return nil, fmt.Errorf("core: corrupt snapshot: cell index offsets [%d,%d] of key %d out of order", lo, hi, i)
		}
		for j := lo; j < hi; j++ {
			e := trace.EntityID(binary.LittleEndian.Uint32(posts[4*j:]))
			if uint(e) >= uint(count) {
				return nil, fmt.Errorf("core: corrupt snapshot: cell index posts entity %d, which the entity table does not hold", e)
			}
			if j > lo && ci.posts[j-1] >= e {
				return nil, fmt.Errorf("core: corrupt snapshot: postings of cell index key %d not ascending", i)
			}
			ci.posts[j], ci.maxID = e, max(ci.maxID, e)
		}
	}
	return ci, nil
}

// DecodeSnapshot reads and validates an image through sr, at its sections'
// offsets, up to but excluding the sequence blobs.
// It never trusts a stored word: every scalar is bounded before it sizes an
// allocation or is narrowed by a cast, every checksum must hold, the entity
// table must be exactly count records, row i carrying entity ID i, every name
// and sequence span must fall inside its section, and the cell index must
// check out in full — so a corrupt file is a descriptive error here, not an
// OOM now or a SIGBUS at query time. An image written before the index
// dropped its signatures, before it kept its entities' level sizes, or
// without its sequences is refused by name.
func DecodeSnapshot(sr *secfile.Reader, ix *spindex.Index) (*Snapshot, error) {
	kinds := []secfile.Kind{secfile.Meta, secfile.Names, secfile.Entities, secfile.Sizes, secfile.Cells, secfile.Seqs}
	switch secs := sr.Secs; {
	case len(secs) > 2 && secs[2].Kind == secfile.SignedEntities:
		return nil, fmt.Errorf("core: the image's entity section is %q, with signature digests: a retired index format — re-save the index with this version (SaveIndex over the rebuilt data)", secs[2].Kind)
	case len(secs) == 3 && secs[0].Kind == secfile.Meta && secs[2].Kind == secfile.Entities:
		return nil, fmt.Errorf("core: the image ends at its entity table %q, with no sequence section: a retired index format — re-save the index with this version (SaveIndex over the rebuilt data)", secs[2].Kind)
	case len(secs) > 3 && secs[3].Kind == secfile.Cells:
		return nil, fmt.Errorf("core: the image's entity table is followed by %q, with no level sizes: a retired index format — re-save the index with this version (SaveIndex over the rebuilt data)", secs[3].Kind)
	}
	for i, sec := range sr.Secs {
		if len(sr.Secs) != len(kinds) || sec.Kind != kinds[i] {
			return nil, fmt.Errorf("core: not an index image: section %d of %d is %q (a cluster envelope opens through shard.Cluster)", i, len(sr.Secs), sec.Kind)
		}
	}
	s := &Snapshot{}
	ents, seqs := sr.Secs[2], sr.Secs[5]

	if sr.Secs[0].Len != 8*metaWords {
		return nil, fmt.Errorf("core: corrupt snapshot: meta section of %d bytes, want %d", sr.Secs[0].Len, 8*metaWords)
	}
	raw, err := sr.ReadAll(0)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot meta: %w", err)
	}
	var w [metaWords]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	if w[0] != uint64(ix.Height()) {
		return nil, fmt.Errorf("core: snapshot has %d levels, sp-index has %d", w[0], ix.Height())
	}
	if w[1] > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt snapshot meta: %d entities", w[1])
	}
	if w[6]&^uint64(flagJaccard) != 0 {
		return nil, fmt.Errorf("core: snapshot meta has unknown flag bits %#x (written by a newer version?)", w[6])
	}
	count := int(w[1])
	s.Meta = SnapshotMeta{
		TimeUnit:   time.Duration(int64(w[2])),
		EpochNanos: int64(w[3]),
		MeasureU:   math.Float64frombits(w[4]),
		MeasureV:   math.Float64frombits(w[5]),
		Jaccard:    w[6]&flagJaccard != 0,
	}
	if s.Meta.TimeUnit <= 0 {
		return nil, fmt.Errorf("core: corrupt snapshot meta: non-positive time unit %d", s.Meta.TimeUnit)
	}

	if ents.Len != int64(count)*entSize+4 {
		return nil, fmt.Errorf("core: corrupt snapshot: entity table is %d bytes, %d entities need %d", ents.Len, count, int64(count)*entSize+4)
	}
	m := ix.Height()
	if sr.Secs[3].Len != int64(count*m)+4 {
		return nil, fmt.Errorf("core: corrupt snapshot: level sizes are %d bytes, %d entities need %d", sr.Secs[3].Len, count, count*m+4)
	}
	names, err := sr.ReadAll(1)
	var table, cells []byte
	if err == nil {
		table, err = sr.ReadAll(2)
	}
	if err == nil {
		s.sizes, err = sr.ReadAll(3)
	}
	if err == nil {
		cells, err = sr.ReadAll(4)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	if table, err = checksummed(table, "entity table"); err != nil {
		return nil, err
	}
	if s.sizes, err = checksummed(s.sizes, "level sizes"); err != nil {
		return nil, err
	}
	if i := slices.Index(s.sizes, 0); i >= 0 {
		return nil, fmt.Errorf("core: corrupt snapshot: level-size byte %d is 0, which marks no entity", i)
	}
	// count records arrived: from here it sizes what it describes.
	s.Entities = make([]SnapshotEntity, count)
	for i := range s.Entities {
		rec := table[i*entSize:]
		if id := binary.LittleEndian.Uint32(rec); id != uint32(i) {
			return nil, fmt.Errorf("core: corrupt snapshot: entity table row %d carries ID %d, not %d (an image holds entities 0..n−1)", i, id, i)
		}
		se := SnapshotEntity{Folded: binary.LittleEndian.Uint32(rec[28:])}
		nameOff, nameLen := int64(binary.LittleEndian.Uint64(rec[4:])), int64(binary.LittleEndian.Uint16(rec[12:]))
		seqOff, seqLen := int64(binary.LittleEndian.Uint64(rec[16:])), int64(binary.LittleEndian.Uint32(rec[24:]))
		if nameOff < 0 || nameOff > int64(len(names))-nameLen {
			return nil, fmt.Errorf("core: snapshot entity %d: name span [%d,+%d) outside name section of %d bytes", i, nameOff, nameLen, len(names))
		}
		if seqOff < 0 || seqLen > math.MaxInt32 || seqOff > seqs.Len-seqLen {
			return nil, fmt.Errorf("core: snapshot entity %d: sequence span [%d,+%d) outside sequence section of %d bytes", i, seqOff, seqLen, seqs.Len)
		}
		se.Name = string(names[nameOff : nameOff+nameLen])
		se.Seq = storage.Span{Off: seqs.Off + seqOff, Len: int32(seqLen)}
		s.Entities[i] = se
	}
	if s.cells, err = decodeCells(cells, count); err != nil {
		return nil, err
	}
	return s, nil
}

// MappedPostings serves the image in place: src reads the entities' Seq
// spans, the stored level sizes are the sealed entity table and the stored
// cell index the sealed cell index. The load never touches src — sequences
// are read at query time; the spans were bounds-checked by DecodeSnapshot.
func (s *Snapshot) MappedPostings(ix *spindex.Index, src SequenceSource) *Postings {
	n := len(s.Entities)
	return &Postings{ix: ix, src: src, m: ix.Height(), base: s.sizes, bound: n, n: n, cells: s.cells.derive()}
}
