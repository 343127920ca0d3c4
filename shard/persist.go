package shard

// Cluster persistence: a cluster snapshot is an envelope of independent
// per-shard DB snapshots (the MSIGTREE2 format of the root package),
// length-prefixed so each section is self-delimiting, preceded by the slot
// map that placed the entities. Warm-restarting a cluster is "re-ingest the
// log through the router, then LoadIndex": the current slot map routes the
// re-ingest, and the envelope's saved map tells the load which saved section
// best warms which current shard — sections are matched to shards by slot
// overlap and loaded leniently (entities a section names that the current
// map routes elsewhere are skipped, warming where they now live instead), so
// the shard count is free to change between save and load. Each shard's own
// LoadIndex re-maps by entity name and validates every resolved entity in
// full; a mismatched section can only cost warmth, never exactness.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"

	"digitaltraces/internal/mmap"
)

// clusterMagic identifies the envelope; bump the trailing digit on layout
// changes. The payload format inside each section is versioned separately
// (by the root package's snapshot magic). The header carries the slot map
// (epoch, 256×uint16 assignment, per-shard touched flags) ahead of the
// section count.
const clusterMagic = "MSIGCLUST2\n"

// maxShardSection caps a section length read from the envelope before
// allocation — corrupt headers must not look like a 2^60-byte index.
const maxShardSection = 1 << 34 // 16 GiB

// SaveIndex persists every shard's index to w as a length-prefixed envelope
// loadable by LoadIndex on a cluster of any shard count: the envelope opens
// with the slot map that placed the entities, so a load can match saved
// sections to current shards by slot overlap. Shards are saved in parallel
// (each shard's SaveIndex folds its own pending dirt first); a shard with no
// entities writes an empty section. Implements the digitaltraces.Engine
// persistence surface.
func (c *Cluster) SaveIndex(w io.Writer) (int64, error) {
	sm := c.slotmap()
	bufs := make([]bytes.Buffer, len(c.shards))
	errs := make([]error, len(c.shards))
	runPool(len(c.shards), runtime.GOMAXPROCS(0), func(i int) {
		if c.shards[i].NumEntities() == 0 {
			return // empty shard: nothing indexed, empty section
		}
		_, errs[i] = c.shards[i].SaveIndex(&bufs[i])
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard: saving shard %d index: %w", i, err)
		}
	}
	bw := bufio.NewWriter(w)
	n := int64(0)
	emit := func(b []byte) error {
		nn, err := bw.Write(b)
		n += int64(nn)
		return err
	}
	hdr := make([]byte, 0, len(clusterMagic)+8+2*NumSlots+8+len(c.shards))
	hdr = append(hdr, clusterMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, sm.epoch)
	for _, sh := range sm.assign {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(sh))
	}
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.shards)))
	for _, t := range sm.touched {
		b := byte(0)
		if t {
			b = 1
		}
		hdr = append(hdr, b)
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	for i := range bufs {
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], uint64(bufs[i].Len()))
		if err := emit(l[:]); err != nil {
			return n, err
		}
		if err := emit(bufs[i].Bytes()); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// LoadIndex warm-restarts the cluster from a SaveIndex envelope, after the
// cluster's visit log has been re-ingested through the router. The load
// never adopts the envelope's slot map — re-ingest already placed every
// entity under the *current* map — the saved map only says which entities
// each saved section describes, so every current shard loads the saved
// section sharing the most slots with it (ties to the lowest section),
// leniently: section entities the current map routes elsewhere are skipped
// and warm where they now live. A 4-shard envelope therefore loads into an
// 8-shard cluster (and vice versa); only entities whose section landed
// elsewhere pay a rebuild on their first refresh. Shards empty under the
// current routing stay index-less and build lazily.
func (c *Cluster) LoadIndex(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(clusterMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("shard: reading cluster snapshot magic: %w", err)
	}
	if string(magic) != clusterMagic {
		return fmt.Errorf("shard: not a cluster index snapshot (magic %q; a single-DB snapshot loads via DB.LoadIndex)", magic)
	}
	var epoch uint64
	if err := binary.Read(br, binary.LittleEndian, &epoch); err != nil {
		return fmt.Errorf("shard: reading cluster snapshot slot-map epoch: %w", err)
	}
	assignB := make([]byte, 2*NumSlots)
	if _, err := io.ReadFull(br, assignB); err != nil {
		return fmt.Errorf("shard: reading cluster snapshot slot assignment: %w", err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("shard: reading cluster snapshot shard count: %w", err)
	}
	if count == 0 || count > math.MaxUint16 {
		return fmt.Errorf("shard: snapshot claims %d shard sections — corrupt envelope", count)
	}
	var saved [NumSlots]int
	for s := range saved {
		saved[s] = int(binary.LittleEndian.Uint16(assignB[2*s:]))
		if saved[s] >= int(count) {
			return fmt.Errorf("shard: snapshot slot %d assigned to shard %d of %d — corrupt envelope", s, saved[s], count)
		}
	}
	// Touched flags describe the save-time cluster's ingest-order alignment;
	// a heap load re-ingested the log fresh, so this cluster's own flags are
	// authoritative and the saved ones are skipped.
	if _, err := io.ReadFull(br, make([]byte, count)); err != nil {
		return fmt.Errorf("shard: reading cluster snapshot touched flags: %w", err)
	}

	// Match each current shard to the saved section it shares the most slots
	// with: that section names the largest set of entities the current map
	// still routes here, so loading it leniently warms the most entities.
	cur := c.slotmap()
	overlap := make([][]int, len(c.shards))
	for o := range overlap {
		overlap[o] = make([]int, count)
	}
	for s := 0; s < NumSlots; s++ {
		overlap[cur.assign[s]][saved[s]]++
	}
	best := make([]int, len(c.shards))
	for o := range best {
		best[o] = -1
		m := 0
		for i, ov := range overlap[o] {
			if ov > m {
				m, best[o] = ov, i
			}
		}
		if c.shards[o].NumEntities() == 0 {
			best[o] = -1 // nothing re-ingested here: LoadIndex has no log to resolve against
		}
	}
	for i := 0; i < int(count); i++ {
		var length uint64
		if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
			return fmt.Errorf("shard: snapshot truncated at section %d header: %w", i, err)
		}
		if length == 0 {
			continue
		}
		if length > maxShardSection {
			return fmt.Errorf("shard: snapshot section %d claims %d bytes — corrupt envelope", i, length)
		}
		var wanters []int
		for o := range best {
			if best[o] == i {
				wanters = append(wanters, o)
			}
		}
		if len(wanters) == 0 {
			if _, err := io.CopyN(io.Discard, br, int64(length)); err != nil {
				return fmt.Errorf("shard: snapshot truncated inside section %d (want %d bytes): %w", i, length, err)
			}
			continue
		}
		section := make([]byte, length)
		if _, err := io.ReadFull(br, section); err != nil {
			return fmt.Errorf("shard: snapshot truncated inside section %d (want %d bytes): %w", i, length, err)
		}
		for _, o := range wanters {
			if err := c.shards[o].LoadIndexLenient(bytes.NewReader(section)); err != nil {
				return fmt.Errorf("shard: loading section %d onto shard %d: %w", i, o, err)
			}
		}
	}
	return nil
}

// clusterMappedMagic identifies the memory-mappable cluster envelope: a
// page-aligned header (carrying the slot map: epoch, 256×uint16 assignment,
// per-shard touched flags), the global entity-ordinal table, then one
// page-aligned MSIGMAP1 image per shard (zero-length for shards that held no
// entities). Unlike the heap envelope, this one also persists the
// cluster-wide first-arrival ordinals — the heap path re-derives them from
// re-ingest, which a mapped boot skips — so cross-shard degree ties break
// exactly as they did at save. For the same reason the shard count cannot
// change across a mapped load: sections are physical images served in place,
// not name-resolved replays (change topology through a heap envelope).
const clusterMappedMagic = "MSIGCMAP2\n"

// mappedBackend is the optional mapped-persistence surface of a Backend. The
// local adapter satisfies it through its embedded *digitaltraces.DB; remote
// shards do not — a memory mapping cannot cross a process boundary, so a
// distributed cluster persists per shard server (each host saves and maps its
// own MSIGMAP1 image) and the coordinator's mapped envelope is refused with a
// descriptive error instead.
type mappedBackend interface {
	SaveMappedIndex(w io.Writer) (int64, error)
	LoadMappedIndexAt(r io.ReaderAt, size int64) error
}

// mappedShard asserts shard i supports mapped persistence.
func (c *Cluster) mappedShard(i int) (mappedBackend, error) {
	mb, ok := c.shards[i].(mappedBackend)
	if !ok {
		return nil, fmt.Errorf("shard: shard %d is remote — mapped cluster envelopes need in-process shards (persist each shard server's index on its own host instead)", i)
	}
	return mb, nil
}

// clusterMapPage is the envelope's alignment unit; the per-shard MSIGMAP1
// images use their own (equal) default page size.
const clusterMapPage = 4096

// SaveMappedIndex persists every shard's index, with sequence data, as a
// memory-mappable envelope loadable by Cluster.LoadMappedIndex on a cluster
// of the same shard count. Shards serialize in parallel (each folding its own
// pending dirt first); an empty shard contributes a zero-length section.
// Implements the digitaltraces.MappedPersister surface.
func (c *Cluster) SaveMappedIndex(w io.Writer) (int64, error) {
	bufs := make([]bytes.Buffer, len(c.shards))
	errs := make([]error, len(c.shards))
	runPool(len(c.shards), runtime.GOMAXPROCS(0), func(i int) {
		if c.shards[i].NumEntities() == 0 {
			return
		}
		mb, err := c.mappedShard(i)
		if err != nil {
			errs[i] = err
			return
		}
		_, errs[i] = mb.SaveMappedIndex(&bufs[i])
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard: saving shard %d mapped index: %w", i, err)
		}
	}
	// The global ordinal table, in first-arrival order.
	c.mu.RLock()
	names := make([]string, len(c.ord))
	for name, o := range c.ord {
		names[o] = name
	}
	c.mu.RUnlock()
	var ord bytes.Buffer
	for _, name := range names {
		if len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("shard: entity name is %d bytes, the mapped envelope caps names at %d", len(name), math.MaxUint16)
		}
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(name)))
		ord.Write(l[:])
		ord.WriteString(name)
	}

	alignUp := func(n int64) int64 {
		return (n + clusterMapPage - 1) &^ (clusterMapPage - 1)
	}
	sm := c.slotmap()
	headerLen := int64(len(clusterMappedMagic)) + 4 + 8 + 8 + 8 + 16 + 8 + 2*NumSlots + int64(len(c.shards)) + 16*int64(len(c.shards))
	headerRegion := alignUp(headerLen)
	ordOff := headerRegion
	ordRegion := alignUp(int64(ord.Len()))
	offs := make([]int64, len(c.shards))
	off := ordOff + ordRegion
	for i := range bufs {
		offs[i] = off
		off += alignUp(int64(bufs[i].Len())) // MSIGMAP1 images are already page-padded
	}
	total := off

	bw := bufio.NewWriter(w)
	n := int64(0)
	emit := func(b []byte) error {
		nn, err := bw.Write(b)
		n += int64(nn)
		return err
	}
	pad := func(to int64) error {
		for n < to {
			chunk := min(int64(clusterMapPage), to-n)
			if err := emit(make([]byte, chunk)); err != nil {
				return err
			}
		}
		return nil
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, clusterMappedMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, clusterMapPage)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(total))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.shards)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(names)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(ordOff))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(ord.Len()))
	hdr = binary.LittleEndian.AppendUint64(hdr, sm.epoch)
	for _, sh := range sm.assign {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(sh))
	}
	for _, t := range sm.touched {
		b := byte(0)
		if t {
			b = 1
		}
		hdr = append(hdr, b)
	}
	for i := range bufs {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(offs[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(bufs[i].Len()))
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	if err := pad(ordOff); err != nil {
		return n, err
	}
	if err := emit(ord.Bytes()); err != nil {
		return n, err
	}
	for i := range bufs {
		if err := pad(offs[i]); err != nil {
			return n, err
		}
		if err := emit(bufs[i].Bytes()); err != nil {
			return n, err
		}
	}
	if err := pad(total); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// LoadMappedIndex maps a SaveMappedIndex envelope read-only and publishes
// every shard's section straight off the mapping (DB.LoadMappedIndexAt), so
// a cluster restart is query-ready after the per-shard signature replays —
// no visit re-ingest — and sequence pages fault in lazily per shard. The
// envelope's shard count must equal this cluster's (routing is hash mod N),
// and the stored global ordinals must agree with any entities already
// registered here, so degree ties break exactly as they did at save. After a
// mapped load every shard is in union-fold mode: new visits keep folding in
// exactly, SaveIndex is refused cluster-wide, and persistence goes through
// SaveMappedIndex. Close unmaps the envelope — stop queries first.
//
// On a mid-load failure shards already loaded keep serving their mapped
// sections (the mapping stays open until Close); the error names the shard
// that failed.
func (c *Cluster) LoadMappedIndex(path string) error {
	m, err := mmap.Open(path)
	if err != nil {
		return fmt.Errorf("shard: mapping cluster index %s: %w", path, err)
	}
	fixedLen := int64(len(clusterMappedMagic)) + 4 + 8 + 8 + 8 + 16
	hdr := make([]byte, fixedLen)
	if m.Size() < fixedLen {
		m.Close()
		return fmt.Errorf("shard: %d bytes is too short for a mapped cluster envelope header (%d)", m.Size(), fixedLen)
	}
	if _, err := m.ReadAt(hdr, 0); err != nil {
		m.Close()
		return fmt.Errorf("shard: reading mapped cluster header: %w", err)
	}
	if string(hdr[:len(clusterMappedMagic)]) != clusterMappedMagic {
		m.Close()
		return fmt.Errorf("shard: not a mapped cluster envelope (magic %q; a single-DB mapped index loads via DB.LoadMappedIndex)", hdr[:len(clusterMappedMagic)])
	}
	p := int64(len(clusterMappedMagic))
	pageSize := int64(binary.LittleEndian.Uint32(hdr[p:]))
	claimed := int64(binary.LittleEndian.Uint64(hdr[p+4:]))
	count := binary.LittleEndian.Uint64(hdr[p+12:])
	ordCount := binary.LittleEndian.Uint64(hdr[p+20:])
	ordOff := int64(binary.LittleEndian.Uint64(hdr[p+28:]))
	ordLen := int64(binary.LittleEndian.Uint64(hdr[p+36:]))
	if pageSize != clusterMapPage {
		m.Close()
		return fmt.Errorf("shard: corrupt mapped cluster envelope: page size %d, want %d", pageSize, clusterMapPage)
	}
	if claimed != m.Size() {
		m.Close()
		return fmt.Errorf("shard: mapped cluster envelope is %d bytes but its header claims %d (truncated or corrupt file)", m.Size(), claimed)
	}
	if int(count) != len(c.shards) {
		m.Close()
		return fmt.Errorf("shard: mapped envelope has %d shard sections, cluster has %d shards — a mapped image serves sections in place, so its shard count is pinned; to change topology, save a heap (SaveIndex) envelope and re-ingest the log at the new count", count, len(c.shards))
	}
	// The slot-map gate: a mapped image is served physically, so the serving
	// map must match the placement the image froze.
	extra := make([]byte, 8+2*NumSlots+int64(count))
	if m.Size() < fixedLen+int64(len(extra)) {
		m.Close()
		return fmt.Errorf("shard: mapped cluster envelope truncated inside its slot map")
	}
	if _, err := m.ReadAt(extra, fixedLen); err != nil {
		m.Close()
		return fmt.Errorf("shard: reading mapped cluster slot map: %w", err)
	}
	if err := c.reconcileMappedSlotMap(extra, int(count)); err != nil {
		m.Close()
		return err
	}
	secBase := fixedLen + int64(len(extra))
	if m.Size() < secBase+16*int64(count) {
		m.Close()
		return fmt.Errorf("shard: mapped cluster envelope truncated inside its section table")
	}
	secs := make([]byte, 16*count)
	if _, err := m.ReadAt(secs, secBase); err != nil {
		m.Close()
		return fmt.Errorf("shard: reading mapped cluster section table: %w", err)
	}
	if ordOff < 0 || ordLen < 0 || ordOff+ordLen > m.Size() || ordOff%pageSize != 0 {
		m.Close()
		return fmt.Errorf("shard: corrupt mapped cluster envelope: ordinal region [%d,%d) outside or misaligned in a %d-byte file", ordOff, ordOff+ordLen, m.Size())
	}

	// Decode and reconcile the global ordinal table before touching any
	// shard: an empty registry adopts it; a populated one (a re-ingested
	// log) must agree on every stored ordinal, or cross-shard tie-breaking
	// would silently differ from the save. Entities registered beyond the
	// stored ones (a log grown since the save) are fine — they sort after.
	ordBytes := make([]byte, ordLen)
	if _, err := m.ReadAt(ordBytes, ordOff); err != nil {
		m.Close()
		return fmt.Errorf("shard: reading mapped cluster ordinal table: %w", err)
	}
	names := make([]string, 0, ordCount)
	for q := 0; uint64(len(names)) < ordCount; {
		if q+2 > len(ordBytes) {
			m.Close()
			return fmt.Errorf("shard: mapped cluster ordinal table truncated at entry %d of %d", len(names), ordCount)
		}
		l := int(binary.LittleEndian.Uint16(ordBytes[q:]))
		q += 2
		if q+l > len(ordBytes) {
			m.Close()
			return fmt.Errorf("shard: mapped cluster ordinal table truncated inside entry %d of %d", len(names), ordCount)
		}
		names = append(names, string(ordBytes[q:q+l]))
		q += l
	}
	c.mu.Lock()
	if len(c.ord) > 0 {
		for i, name := range names {
			if o, ok := c.ord[name]; !ok || o != i {
				c.mu.Unlock()
				m.Close()
				return fmt.Errorf("shard: entity %q has global ordinal %d in the envelope but %d here — mapped envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order (or load into a fresh cluster)", name, i, orValue(o, ok))
			}
		}
	}
	c.mu.Unlock()

	// The mapping must outlive every shard snapshot published below, even if
	// a later shard fails — track it for Close before the first load.
	c.mu.Lock()
	c.mappings = append(c.mappings, m)
	c.mu.Unlock()
	for i := range c.shards {
		off := int64(binary.LittleEndian.Uint64(secs[16*i:]))
		length := int64(binary.LittleEndian.Uint64(secs[16*i+8:]))
		if length == 0 {
			continue // empty shard at save time: stays index-less, builds lazily
		}
		if off < 0 || length < 0 || off+length > m.Size() || off%pageSize != 0 {
			return fmt.Errorf("shard: corrupt mapped cluster envelope: shard %d section [%d,%d) outside or misaligned in a %d-byte file", i, off, off+length, m.Size())
		}
		mb, err := c.mappedShard(i)
		if err != nil {
			return err
		}
		if err := mb.LoadMappedIndexAt(io.NewSectionReader(m, off, length), length); err != nil {
			return fmt.Errorf("shard: loading shard %d mapped index: %w", i, err)
		}
	}
	c.mu.Lock()
	if len(c.ord) == 0 {
		for i, name := range names {
			c.ord[name] = i
		}
	}
	c.mu.Unlock()
	return nil
}

// reconcileMappedSlotMap applies a mapped envelope's slot map (epoch,
// 256×uint16 assignment, per-shard touched flags, concatenated in extra)
// against the cluster's. A populated registry (a re-ingested log) must
// already be routed exactly as the image was saved — the image is served
// physically, so a divergent map would filter answers under ownership the
// sections do not reflect. An empty cluster adopts the saved map wholesale.
// Either way the saved touched flags are honored: they mark shards whose
// image's local ingest order is misaligned with the global order, a property
// the mapped load preserves byte-for-byte.
func (c *Cluster) reconcileMappedSlotMap(extra []byte, count int) error {
	savedEpoch := binary.LittleEndian.Uint64(extra)
	var saved [NumSlots]int
	for s := range saved {
		saved[s] = int(binary.LittleEndian.Uint16(extra[8+2*s:]))
		if saved[s] >= count {
			return fmt.Errorf("shard: corrupt mapped cluster envelope: slot %d assigned to shard %d of %d", s, saved[s], count)
		}
	}
	touched := make([]bool, count)
	for i := range touched {
		touched[i] = extra[8+2*NumSlots+i] != 0
	}
	c.mu.RLock()
	populated := len(c.ord) > 0
	c.mu.RUnlock()
	cur := c.slotmap()
	if !populated {
		// Fresh boot straight off the image: the saved placement becomes the
		// serving placement. The epoch stays monotone past any AssignSlots
		// publishes that preceded this load.
		next := &SlotMap{epoch: max(savedEpoch, cur.epoch+1), touched: touched}
		copy(next.assign[:], saved[:])
		c.publishSlotMap(next)
		return nil
	}
	for s := range saved {
		if cur.assign[s] != saved[s] {
			return fmt.Errorf("shard: mapped envelope assigns slot %d to shard %d but this cluster routes it to shard %d — the log was re-ingested under a different slot map than the image froze; restore the saved map (AssignSlots before ingest) or load into a fresh cluster", s, saved[s], cur.assign[s])
		}
	}
	merge := false
	for i, t := range touched {
		if t && !cur.touched[i] {
			merge = true
		}
	}
	if merge {
		next := cur.clone()
		next.epoch++
		for i, t := range touched {
			if t {
				next.touched[i] = true
			}
		}
		c.publishSlotMap(next)
	}
	return nil
}

// orValue renders a registry lookup for the ordinal-mismatch error: the
// found ordinal, or -1 when the name is not registered at all.
func orValue(o int, ok bool) int {
	if !ok {
		return -1
	}
	return o
}
