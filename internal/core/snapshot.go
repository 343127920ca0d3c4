package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Index persistence. A snapshot stores the hash-family scalars (seed,
// horizon, nh — the family's tables are deterministic in them) and every
// entity's per-level signature digests; the tree itself is replayed from
// the digests on load, which both keeps the format small and revalidates the
// grouping invariant. The sequence data is not part of the snapshot — it
// lives in the caller's SequenceSource (trace.Store in memory, or a
// storage.Store block file).
//
// The format (MSIGTREE2) carries a per-entity name table plus the covered
// visit count, and stamps the engine-level scalars (time unit, epoch,
// measure) into the header, so a loaded tree is self-describing: readers
// resolve entities by name, never by ID order, and can detect a data set
// that drifted from the one the snapshot was built over.

const snapshotMagic = "MSIGTREE2\n"

// flagJaccard is the one assigned bit of the header flags word. Unknown bits
// are a read error: a future writer that sets one changed semantics this
// reader does not understand.
const flagJaccard = 1 << 0

// FoldedUnknown is the folded-count sentinel for an entity whose exact
// covered visit count was unknown at save time (it had visits newer than the
// saved tree). Readers must treat such an entity's signature as stale: usable
// only after re-signing from current data, never served as-is.
const FoldedUnknown = ^uint32(0)

// SnapshotMeta carries the engine-level scalars stamped into the snapshot
// header. They describe how the visit data the signatures were computed from
// was discretized and scored, so a loader can verify its own configuration
// matches instead of silently answering under different semantics.
type SnapshotMeta struct {
	TimeUnit   time.Duration // base temporal unit visits were discretized into
	EpochNanos int64         // observation-horizon start, Unix nanoseconds
	MeasureU   float64       // paper-measure level exponent (Eq 7.1)
	MeasureV   float64       // paper-measure duration exponent
	Jaccard    bool          // uniformly weighted Jaccard measure instead of Eq 7.1
}

// SnapshotInfo describes a snapshot as read: the hash-family scalars and the
// engine meta.
type SnapshotInfo struct {
	NH       int        // hash functions the family was built with
	Seed     uint64     // hash-family seed
	Horizon  trace.Time // indexed time horizon
	Entities int        // entities stored in the file
	Skipped  int        // entities a Resolve callback chose to leave out
	Meta     SnapshotMeta
}

// SnapshotEntity is one stored entity as presented to a Resolve callback.
type SnapshotEntity struct {
	ID     trace.EntityID // the entity's ID at save time
	Name   string         // the entity's name
	Folded uint32         // visits the signature covers; FoldedUnknown for
	//                       entities dirty at save time
}

// Resolve maps a stored entity into the reader's ID space. Returning
// keep=false leaves the entity out of the loaded tree without error (the
// caller folds it back in by other means); a non-nil error aborts the load.
// The mapped ID must have sequences in the read's SequenceSource by the time
// the entity is resolved — ReadSnapshotWith validates exactly that.
type Resolve func(se SnapshotEntity) (mapped trace.EntityID, keep bool, err error)

// WriteSnapshot serializes the index: the engine meta scalars and, per
// entity, its signature digests, its name and the visit count its signature
// covers (info supplies both; pass FoldedUnknown for an entity whose
// signature is stale relative to its latest visits). Names longer than
// 64 KiB are rejected. Only trees built over a *sighash.Family can be
// persisted (worked-example TableHashers have no compact description).
func (t *Tree) WriteSnapshot(w io.Writer, meta SnapshotMeta, info func(e trace.EntityID) (name string, folded uint32)) (int64, error) {
	fam, ok := t.hasher.(*sighash.Family)
	if !ok {
		return 0, fmt.Errorf("core: only Family-hashed trees can be persisted, have %T", t.hasher)
	}
	if info == nil {
		return 0, fmt.Errorf("core: WriteSnapshot needs an entity info callback (readers resolve entities by name)")
	}
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return n, err
	}
	n += int64(len(snapshotMagic))
	var flags uint64
	if meta.Jaccard {
		flags |= flagJaccard
	}
	hdr := []uint64{
		uint64(t.m),
		uint64(fam.NumFuncs()),
		fam.Seed(),
		uint64(fam.Horizon()),
		uint64(t.sigs.len()),
		uint64(meta.TimeUnit),
		uint64(meta.EpochNanos),
		math.Float64bits(meta.MeasureU),
		math.Float64bits(meta.MeasureV),
		flags,
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	for _, e := range t.sigs.entities() {
		name, folded := info(e)
		if len(name) > math.MaxUint16 {
			return n, fmt.Errorf("core: entity %d name is %d bytes, the format caps names at %d", e, len(name), math.MaxUint16)
		}
		if err := write(uint32(e)); err != nil {
			return n, err
		}
		if err := write(folded); err != nil {
			return n, err
		}
		if err := write(uint16(len(name))); err != nil {
			return n, err
		}
		if _, err := bw.WriteString(name); err != nil {
			return n, err
		}
		n += int64(len(name))
		sig, _ := t.sigs.get(e)
		for _, ls := range sig {
			if err := write(ls.Routing); err != nil {
				return n, err
			}
			if err := write(ls.Value); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadSnapshot reconstructs a tree from a snapshot, trusting stored entity
// IDs verbatim. Every loaded entity is validated against src at load time —
// an entity without sequences is a descriptive error immediately, not a
// failure deferred to the first query that reaches it. Callers that need to
// re-map entities by name, skip stale ones, or read the engine meta use
// ReadSnapshotWith.
func ReadSnapshot(r io.Reader, ix *spindex.Index, src SequenceSource) (*Tree, error) {
	t, _, err := ReadSnapshotWith(r, ix, src, nil)
	return t, err
}

// ReadSnapshotWith reconstructs a tree from a snapshot, rebuilding the hash
// family over the given sp-index (which must be the one the tree was built
// against) and replaying the stored signature digests. A non-nil resolve
// callback maps each stored entity (saved ID, name and covered visit count)
// into the caller's ID space and may skip entities; nil trusts stored IDs
// and keeps everything. Every kept entity must have sequences in src — a
// missing one fails the load with an error naming it. src supplies entity
// sequences at query time.
func ReadSnapshotWith(r io.Reader, ix *spindex.Index, src SequenceSource, resolve Resolve) (*Tree, *SnapshotInfo, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, nil, fmt.Errorf("core: not a MinSigTree snapshot (magic %q)", magic)
	}
	hdr := make([]uint64, 10)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	// Every header word is corruption-controlled; bound each before it
	// sizes an allocation or is narrowed by a cast, so a corrupt file is a
	// descriptive error, not an OOM. maxSnapshotNH is far past any real
	// configuration (the paper tops out at a few hundred hash functions),
	// and horizon/count must fit their int32 domains (trace.Time, EntityID).
	const maxSnapshotNH = 1 << 20
	m, nh, seed, count := int(hdr[0]), int(hdr[1]), hdr[2], int(hdr[4])
	if m != ix.Height() {
		return nil, nil, fmt.Errorf("core: snapshot has %d levels, sp-index has %d", m, ix.Height())
	}
	if nh < 1 || nh > maxSnapshotNH {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header: %d hash functions", hdr[1])
	}
	if hdr[3] < 1 || hdr[3] > math.MaxInt32 {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header: horizon %d", hdr[3])
	}
	horizon := trace.Time(hdr[3])
	if count < 0 || hdr[4] > math.MaxInt32 {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header: %d entities", hdr[4])
	}
	if hdr[9]&^uint64(flagJaccard) != 0 {
		return nil, nil, fmt.Errorf("core: snapshot header has unknown flag bits %#x (written by a newer version?)", hdr[9])
	}
	info := &SnapshotInfo{NH: nh, Seed: seed, Horizon: horizon, Entities: count, Meta: SnapshotMeta{
		TimeUnit:   time.Duration(int64(hdr[5])),
		EpochNanos: int64(hdr[6]),
		MeasureU:   math.Float64frombits(hdr[7]),
		MeasureV:   math.Float64frombits(hdr[8]),
		Jaccard:    hdr[9]&flagJaccard != 0,
	}}
	if info.Meta.TimeUnit <= 0 {
		return nil, nil, fmt.Errorf("core: corrupt snapshot header: non-positive time unit %d", info.Meta.TimeUnit)
	}
	fam, err := sighash.NewFamily(ix, horizon, nh, seed)
	if err != nil {
		return nil, nil, err
	}
	// Cap the pre-allocation hint: count is attacker-/corruption-controlled
	// and truncation errors surface entity by entity anyway.
	hint := count
	if hint > 1<<20 {
		hint = 1 << 20
	}
	t := &Tree{
		ix:     ix,
		hasher: fam,
		src:    src,
		root:   &node{},
		sigs:   newSigTable(hint),
		m:      m,
	}
	// Per-entity decoding reads whole regions into a scratch buffer and
	// decodes manually — at three reads per entity (fixed prefix, name,
	// signature block) the loop is I/O-shaped instead of reflection-shaped
	// (binary.Read per field measurably drags a large restore).
	const prefixLen = 10 // id, folded, nameLen
	scratch := make([]byte, prefixLen+12*m)
	name := make([]byte, 0, 64)
	for i := 0; i < count; i++ {
		prefix := scratch[:prefixLen]
		if _, err := io.ReadFull(br, prefix); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot truncated at entity %d: %w", i, err)
		}
		id := binary.LittleEndian.Uint32(prefix[0:4])
		se := SnapshotEntity{ID: trace.EntityID(id), Folded: binary.LittleEndian.Uint32(prefix[4:8])}
		nameLen := binary.LittleEndian.Uint16(prefix[8:10])
		name = append(name[:0], make([]byte, nameLen)...)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot truncated at entity %d (reading %d-byte name): %w", i, nameLen, err)
		}
		se.Name = string(name)
		sigBuf := scratch[prefixLen : prefixLen+12*m]
		if _, err := io.ReadFull(br, sigBuf); err != nil {
			return nil, nil, fmt.Errorf("core: snapshot truncated at entity %d: %w", i, err)
		}
		sig := make(sighash.EntitySig, m)
		for l := 0; l < m; l++ {
			sig[l].Routing = binary.LittleEndian.Uint32(sigBuf[12*l:])
			sig[l].Value = binary.LittleEndian.Uint64(sigBuf[12*l+4:])
			if int(sig[l].Routing) >= nh {
				return nil, nil, fmt.Errorf("core: snapshot entity %d: routing %d ≥ nh %d", id, sig[l].Routing, nh)
			}
		}
		e := se.ID
		if resolve != nil {
			mapped, keep, err := resolve(se)
			if err != nil {
				return nil, nil, err
			}
			if !keep {
				info.Skipped++
				continue
			}
			e = mapped
		}
		// Load-time validation: a loaded entity with no sequences would only
		// fail when a query reached it. Fail now, naming it.
		if src.Get(e) == nil {
			return nil, nil, fmt.Errorf("core: snapshot %s has no sequences in the source (data set differs from the one the snapshot was built over)", describeEntity(se, e))
		}
		if _, dup := t.sigs.get(e); dup {
			return nil, nil, fmt.Errorf("core: snapshot repeats %s", describeEntity(se, e))
		}
		t.insertWithSig(e, sig)
	}
	// The level-1 cell index is not stored: it is sealed from the kept
	// entities' sequences, just validated present.
	t.cells = sealCells(src, t.Entities())
	return t, info, nil
}

// describeEntity names a snapshot entity for error messages (plus the mapped
// ID when a resolver changed it).
func describeEntity(se SnapshotEntity, mapped trace.EntityID) string {
	if mapped != se.ID {
		return fmt.Sprintf("entity %q (saved as ID %d, resolved to %d)", se.Name, se.ID, mapped)
	}
	return fmt.Sprintf("entity %q (ID %d)", se.Name, se.ID)
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
