package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"digitaltraces/internal/secfile"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

// Index persistence: one image layout (sections of a secfile container),
// written by Tree.WriteSnapshot and read by DecodeSnapshot.
//
//	meta      ten u64 words: levels, nh, seed, horizon (the hash family is
//	          deterministic in these four), entity count, time unit, epoch,
//	          measure exponents u and v, flags
//	names     the concatenated entity names
//	entities  one fixed-width record per entity: id, name span, sequence span,
//	          covered visit count, the m-level signature digest
//	cells     the level-1 cell index (CSR), closed by a CRC32C
//	seqs      the concatenated storage.EncodeSequences blobs, page-aligned
//
// The tree is never stored: it is replayed from the digests, which keeps the
// image small and revalidates the grouping invariant. cells and seqs are
// written together or not at all. Without them the image serves a warm
// restart: the loader re-ingests the visit log, resolves entities by name and
// seals the cell index from the sequences it staged (Snapshot.Tree). With them
// it is served in place off a read-only mapping, IDs trusted, sequence pages
// faulting in as queries touch them (Snapshot.MappedTree). A structural slip
// anywhere trips a bounds check; a posting missing from the cell index would
// only show as a wrong answer — so that section alone carries a checksum.

// FoldedUnknown is the folded-count sentinel for an entity whose exact
// covered visit count was unknown at save time (it had visits newer than the
// saved tree). Readers must treat such an entity's signature as stale: usable
// only after re-signing from current data, never served as-is.
const FoldedUnknown = ^uint32(0)

const (
	// flagJaccard is the one assigned bit of the meta flags word. Unknown
	// bits are a read error: a future writer that sets one changed semantics
	// this reader does not understand.
	flagJaccard = 1 << 0
	metaWords   = 10
	entFixed    = 32 // id(4) nameOff(8) nameLen(2) pad(2) seqOff(8) seqLen(4) folded(4)
	// maxSnapshotNH is far past any real configuration (the paper tops out at
	// a few hundred hash functions).
	maxSnapshotNH = 1 << 20
)

// crc32c checksums the cells section (the table is built on first use).
func crc32c(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// SnapshotMeta carries the engine-level scalars stamped into the image: how
// the visit data the signatures were computed from was discretized and scored,
// so a loader can verify its own configuration matches instead of silently
// answering under different semantics.
type SnapshotMeta struct {
	TimeUnit   time.Duration // base temporal unit visits were discretized into
	EpochNanos int64         // observation-horizon start, Unix nanoseconds
	MeasureU   float64       // paper-measure level exponent (Eq 7.1)
	MeasureV   float64       // paper-measure duration exponent
	Jaccard    bool          // uniformly weighted Jaccard measure instead of Eq 7.1
}

// SnapshotInfo describes an image as read: the hash-family scalars and the
// engine meta.
type SnapshotInfo struct {
	NH      int        // hash functions the family was built with
	Seed    uint64     // hash-family seed
	Horizon trace.Time // indexed time horizon
	Meta    SnapshotMeta
}

// SnapshotEntity is one row of an image's entity table.
type SnapshotEntity struct {
	ID     trace.EntityID // the entity's ID at save time
	Name   string
	Folded uint32 // visits the signature covers; FoldedUnknown for entities dirty at save time
	Sig    sighash.EntitySig
	Seq    storage.Span // the entity's sequence blob, absolute; empty in an image without sequences
}

// Snapshot is a decoded, validated image. It holds no reference to the reader
// it came from.
type Snapshot struct {
	Info     SnapshotInfo
	Entities []SnapshotEntity
	HasSeqs  bool
	cells    *cellIndex // the stored cell index; nil without sequences
}

// Resolve maps a stored entity into the reader's ID space. Returning
// keep=false leaves the entity out of the loaded tree without error (the
// caller folds it back in by other means); a non-nil error aborts the load.
type Resolve func(se SnapshotEntity) (mapped trace.EntityID, keep bool, err error)

// WriteSnapshot serializes the index. info supplies each entity's name and
// the visit count its signature covers (FoldedUnknown for an entity whose
// signature is stale relative to its latest visits). A non-nil seqs — the
// store the tree was built over — adds every entity's sequences and the cell
// index, which makes the image servable in place. Names longer than 64 KiB are
// rejected. Only trees built over a *sighash.Family can be persisted
// (worked-example TableHashers have no compact description). Returns the bytes
// written; the output is deterministic for a given tree and store.
func (t *Tree) WriteSnapshot(w io.Writer, meta SnapshotMeta, seqs SequenceSource, info func(e trace.EntityID) (name string, folded uint32)) (int64, error) {
	fam, ok := t.hasher.(*sighash.Family)
	if !ok {
		return 0, fmt.Errorf("core: only Family-hashed trees can be persisted, have %T", t.hasher)
	}
	if info == nil {
		return 0, fmt.Errorf("core: WriteSnapshot needs an entity info callback (readers resolve entities by name)")
	}
	// The sections before seqs are small (under 100 bytes an entity) and are
	// assembled whole; their sizes and the blobs' fix the layout before a byte
	// is written, so the sequences stream out one entity at a time.
	entities := t.sigs.entities()
	entSize := entFixed + 12*t.m
	var flags uint64
	if meta.Jaccard {
		flags |= flagJaccard
	}
	var head, names []byte
	for _, v := range [metaWords]uint64{
		uint64(t.m), uint64(fam.NumFuncs()), fam.Seed(), uint64(fam.Horizon()), uint64(len(entities)),
		uint64(meta.TimeUnit), uint64(meta.EpochNanos), math.Float64bits(meta.MeasureU), math.Float64bits(meta.MeasureV), flags,
	} {
		head = binary.LittleEndian.AppendUint64(head, v)
	}
	ents := make([]byte, 0, len(entities)*entSize)
	var seqsLen int64
	for _, e := range entities {
		name, folded := info(e)
		if len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("core: entity %d name is %d bytes, the format caps names at %d", e, len(name), math.MaxUint16)
		}
		seqLen := 0
		if seqs != nil {
			s := seqs.Get(e)
			if s == nil {
				return 0, fmt.Errorf("core: entity %d has no sequences in the source", e)
			}
			seqLen = storage.EncodedSize(s)
		}
		ents = binary.LittleEndian.AppendUint32(ents, uint32(e))
		ents = binary.LittleEndian.AppendUint64(ents, uint64(len(names)))
		ents = binary.LittleEndian.AppendUint32(ents, uint32(len(name))) // u16 length, u16 zero pad
		ents = binary.LittleEndian.AppendUint64(ents, uint64(seqsLen))
		ents = binary.LittleEndian.AppendUint32(ents, uint32(seqLen))
		ents = binary.LittleEndian.AppendUint32(ents, folded)
		sig, _ := t.sigs.get(e)
		for _, ls := range sig {
			ents = binary.LittleEndian.AppendUint32(ents, ls.Routing)
			ents = binary.LittleEndian.AppendUint64(ents, ls.Value)
		}
		names = append(names, name...)
		seqsLen += int64(seqLen)
	}
	parts := [][]byte{head, names, ents}
	secs := []secfile.Section{{Kind: secfile.Meta}, {Kind: secfile.Names}, {Kind: secfile.Entities}}
	if seqs != nil {
		parts = append(parts, t.cells.encode())
		secs = append(secs, secfile.Section{Kind: secfile.Cells}, secfile.Section{Kind: secfile.Seqs, Len: seqsLen})
	}
	for i, p := range parts {
		secs[i].Len = int64(len(p))
	}
	sw, err := secfile.NewWriter(w, secs)
	if err != nil {
		return 0, err
	}
	for _, p := range parts {
		if _, err := sw.Write(p); err != nil {
			return 0, err
		}
	}
	if seqs == nil {
		return sw.Close()
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

// encode serializes the index as the cells section: the pairs of base and
// added, minus those of the entities in gone (the stale pairs of entities
// still indexed stay — the index is a superset by contract), as
// count(keys) u64 · count(posts) u64 · keys u64 · offs u32 · posts u32 ·
// CRC32C of all of it.
func (ci *cellIndex) encode() []byte {
	if len(ci.added)+len(ci.gone) > 0 {
		ci = seal(ci.pairs(ci.gone))
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

// decodeCells validates a cells section — checksum first, then every
// structural property a search relies on: keys strictly ascending, offsets
// non-decreasing from 0 to the posting count, every list strictly ascending,
// every posted ID one the entity table holds (holds).
func decodeCells(b []byte, holds func(trace.EntityID) bool) (*cellIndex, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index of %d bytes", len(b))
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32c(body); got != sum {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index checksum %#x, stored %#x", got, sum)
	}
	nk, np := binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:])
	// Both counts are bounded by the bytes present before they size anything.
	if nk > uint64(len(body))/12 || np > uint64(len(body))/4 || 16+8*nk+4*(nk+1)+4*np != uint64(len(body)) {
		return nil, fmt.Errorf("core: corrupt snapshot: cell index of %d bytes claims %d cells and %d postings", len(b), nk, np)
	}
	ci := &cellIndex{keys: make([]trace.Cell, nk), offs: make([]uint32, nk+1), posts: make([]trace.EntityID, np),
		added: map[trace.Cell][]trace.EntityID{}, maxID: -1, gone: map[trace.EntityID]struct{}{}}
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
			if !holds(e) {
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

// DecodeSnapshot reads and validates an image through sr — a stream or a
// mapping, the decoding is the same — up to but excluding the sequence blobs.
// It never trusts a stored word: every scalar is bounded before it sizes an
// allocation or is narrowed by a cast, the entity table must be exactly count
// records, every name and sequence span must fall inside its section, no ID
// repeats, and the cell index must check out in full — so a corrupt file is a
// descriptive error here, not an OOM now or a SIGBUS at query time.
func DecodeSnapshot(sr *secfile.Reader, ix *spindex.Index) (*Snapshot, error) {
	kinds := []secfile.Kind{secfile.Meta, secfile.Names, secfile.Entities, secfile.Cells, secfile.Seqs}
	for i, sec := range sr.Secs {
		if (len(sr.Secs) != 3 && len(sr.Secs) != len(kinds)) || sec.Kind != kinds[i] {
			return nil, fmt.Errorf("core: not an index image: section %d of %d is %q (a cluster envelope loads through shard.Cluster)", i, len(sr.Secs), sec.Kind)
		}
	}
	s := &Snapshot{HasSeqs: len(sr.Secs) == len(kinds)}
	ents, seqs := sr.Secs[2], secfile.Section{}
	if s.HasSeqs {
		seqs = sr.Secs[4]
	}

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
	m, nh, count := int(w[0]), int(w[1]), int(w[4])
	if w[0] != uint64(ix.Height()) {
		return nil, fmt.Errorf("core: snapshot has %d levels, sp-index has %d", w[0], ix.Height())
	}
	if w[1] < 1 || w[1] > maxSnapshotNH {
		return nil, fmt.Errorf("core: corrupt snapshot meta: %d hash functions", w[1])
	}
	if w[3] < 1 || w[3] > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt snapshot meta: horizon %d", w[3])
	}
	if w[4] > math.MaxInt32 {
		return nil, fmt.Errorf("core: corrupt snapshot meta: %d entities", w[4])
	}
	if w[9]&^uint64(flagJaccard) != 0 {
		return nil, fmt.Errorf("core: snapshot meta has unknown flag bits %#x (written by a newer version?)", w[9])
	}
	s.Info = SnapshotInfo{NH: nh, Seed: w[2], Horizon: trace.Time(w[3]), Meta: SnapshotMeta{
		TimeUnit:   time.Duration(int64(w[5])),
		EpochNanos: int64(w[6]),
		MeasureU:   math.Float64frombits(w[7]),
		MeasureV:   math.Float64frombits(w[8]),
		Jaccard:    w[9]&flagJaccard != 0,
	}}
	if s.Info.Meta.TimeUnit <= 0 {
		return nil, fmt.Errorf("core: corrupt snapshot meta: non-positive time unit %d", s.Info.Meta.TimeUnit)
	}

	entSize := entFixed + 12*m
	if ents.Len != int64(count)*int64(entSize) {
		return nil, fmt.Errorf("core: corrupt snapshot: entity table is %d bytes, %d entities need %d", ents.Len, count, int64(count)*int64(entSize))
	}
	names, err := sr.ReadAll(1)
	var table, cells []byte
	if err == nil {
		table, err = sr.ReadAll(2)
	}
	if err == nil && s.HasSeqs {
		cells, err = sr.ReadAll(3)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	// count records arrived: from here it sizes what it describes.
	s.Entities = make([]SnapshotEntity, count)
	known := make(map[trace.EntityID]bool, count)
	dense := true // IDs are 0 … count-1 in table order: the usual case, and a cheap membership test
	for i := range s.Entities {
		rec := table[i*entSize:]
		se := SnapshotEntity{ID: trace.EntityID(binary.LittleEndian.Uint32(rec)), Folded: binary.LittleEndian.Uint32(rec[28:])}
		nameOff, nameLen := int64(binary.LittleEndian.Uint64(rec[4:])), int64(binary.LittleEndian.Uint16(rec[12:]))
		seqOff, seqLen := int64(binary.LittleEndian.Uint64(rec[16:])), int64(binary.LittleEndian.Uint32(rec[24:]))
		if nameOff < 0 || nameOff > int64(len(names))-nameLen {
			return nil, fmt.Errorf("core: snapshot entity %d: name span [%d,+%d) outside name section of %d bytes", se.ID, nameOff, nameLen, len(names))
		}
		if seqOff < 0 || seqLen > math.MaxInt32 || seqOff > seqs.Len-seqLen {
			return nil, fmt.Errorf("core: snapshot entity %d: sequence span [%d,+%d) outside sequence section of %d bytes", se.ID, seqOff, seqLen, seqs.Len)
		}
		if known[se.ID] {
			return nil, fmt.Errorf("core: snapshot repeats entity %d", se.ID)
		}
		known[se.ID], dense = true, dense && int(se.ID) == i
		se.Name = string(names[nameOff : nameOff+nameLen])
		se.Seq = storage.Span{Off: seqs.Off + seqOff, Len: int32(seqLen)}
		se.Sig = make(sighash.EntitySig, m)
		for l := range se.Sig {
			se.Sig[l] = sighash.LevelSig{Routing: binary.LittleEndian.Uint32(rec[entFixed+12*l:]), Value: binary.LittleEndian.Uint64(rec[entFixed+12*l+4:])}
			if int(se.Sig[l].Routing) >= nh {
				return nil, fmt.Errorf("core: snapshot entity %d: routing %d ≥ nh %d", se.ID, se.Sig[l].Routing, nh)
			}
		}
		s.Entities[i] = se
	}
	if s.HasSeqs {
		holds := func(e trace.EntityID) bool { return known[e] }
		if dense {
			holds = func(e trace.EntityID) bool { return uint(e) < uint(count) }
		}
		if s.cells, err = decodeCells(cells, holds); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replay starts the tree an image's digests are replayed into, over the hash
// family its scalars describe; src supplies entity sequences at query time.
func (s *Snapshot) replay(ix *spindex.Index, src SequenceSource) (*Tree, error) {
	fam, err := sighash.NewFamily(ix, s.Info.Horizon, s.Info.NH, s.Info.Seed)
	if err != nil {
		return nil, err
	}
	return &Tree{ix: ix, hasher: fam, src: src, root: &node{}, sigs: newSigTable(len(s.Entities)), m: ix.Height()}, nil
}

// Tree replays the image into a tree over the reader's own sequences: the
// load that follows a re-ingested visit log. A non-nil resolve maps each
// stored entity into the caller's ID space and may skip entities; nil trusts
// stored IDs and keeps everything. Every kept entity must have sequences in
// src — a missing one fails the load with an error naming it, not at the first
// query that reaches it. IDs may have moved, so a stored cell index is not
// used: the tree's is sealed from src.
func (s *Snapshot) Tree(ix *spindex.Index, src SequenceSource, resolve Resolve) (*Tree, error) {
	t, err := s.replay(ix, src)
	if err != nil {
		return nil, err
	}
	for _, se := range s.Entities {
		e := se.ID
		if resolve != nil {
			mapped, keep, err := resolve(se)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			e = mapped
		}
		if src.Get(e) == nil {
			return nil, fmt.Errorf("core: snapshot entity %q (saved as ID %d, ID %d here) has no sequences in the source (data set differs from the one the snapshot was built over)", se.Name, se.ID, e)
		}
		if _, dup := t.sigs.get(e); dup {
			return nil, fmt.Errorf("core: snapshot repeats entity %q (saved as ID %d, ID %d here)", se.Name, se.ID, e)
		}
		t.insertWithSig(e, se.Sig)
	}
	t.cells = sealCells(src, t.Entities())
	return t, nil
}

// MappedTree replays an image that carries its sequences (HasSeqs) into a
// tree served in place: src reads the entities' Seq spans, IDs are the stored
// ones, the cell index is the stored one. The replay is O(entities · levels)
// and never touches src — sequence pages fault in at query time; the spans
// were bounds-checked by DecodeSnapshot.
func (s *Snapshot) MappedTree(ix *spindex.Index, src SequenceSource) (*Tree, error) {
	if !s.HasSeqs {
		return nil, fmt.Errorf("core: snapshot carries no sequence section, so no tree can be served off it in place")
	}
	t, err := s.replay(ix, src)
	if err != nil {
		return nil, err
	}
	for _, se := range s.Entities {
		t.insertWithSig(se.ID, se.Sig)
	}
	t.cells = s.cells.derive() // the sealed base is shared, what a tree writes is its own
	return t, nil
}

// insertWithSig replays an insertion from a stored signature digest,
// bypassing sequence access and hashing.
func (t *Tree) insertWithSig(e trace.EntityID, sig sighash.EntitySig) {
	t.sigs.put(e, sig)
	cur := t.root
	cur.count++
	for _, ls := range sig {
		cur, _ = cur.childFor(ls)
		cur.count++
	}
	cur.entities = append(cur.entities, e)
}
