package shard

// Cluster persistence: one envelope — a secfile container of
//
//	slots     the slot map that placed the entities: epoch u64, 256 × u16
//	          assignment, one touched flag per shard
//	ordinals  the cluster-wide first-arrival order: u16-length-prefixed entity
//	          names
//	shard ×n  one DB image per shard (the root package's format), page-aligned;
//	          empty for a shard that held no entities
//
// written by SaveIndex (shard images without the sequence section) and
// SaveMappedIndex (with it), and two ways to load it. LoadIndex is "re-ingest
// the log through the router, then load": the current slot map routed the
// re-ingest, the saved map only says which section best warms which current
// shard, and each shard's own LoadIndex re-maps by entity name — so the shard
// count is free to change between save and load, and a mismatched section can
// only cost warmth, never exactness. LoadMappedIndex serves the sections in
// place off one mapping with no re-ingest: shard count, slot map and ordinals
// must then be the saved ones.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"

	"digitaltraces/internal/mmap"
	"digitaltraces/internal/secfile"
)

// maxShardSection caps a shard section's claimed length — corrupt tables must
// not look like a 2^60-byte index.
const maxShardSection = 1 << 34 // 16 GiB

// mappedBackend is the optional mapped-persistence surface of a Backend. The
// local adapter satisfies it through its embedded *digitaltraces.DB; remote
// shards do not — a memory mapping cannot cross a process boundary, so a
// distributed cluster persists per shard server and the coordinator's mapped
// envelope is refused with a descriptive error instead.
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

// SaveIndex persists every shard's index, without the sequence section, as an
// envelope loadable by LoadIndex on a cluster of any shard count: it opens
// with the slot map that placed the entities, so a load can match saved
// sections to current shards by slot overlap. Shards are saved in parallel
// (each shard's SaveIndex folds its own pending dirt first); a shard with no
// entities writes an empty section. Implements the digitaltraces.Engine
// persistence surface.
func (c *Cluster) SaveIndex(w io.Writer) (int64, error) {
	return c.saveEnvelope(w, func(i int, w io.Writer) (int64, error) { return c.shards[i].SaveIndex(w) })
}

// SaveMappedIndex persists every shard's index, with the sequence section, as
// an envelope Cluster.LoadMappedIndex serves in place on a cluster of the same
// shard count (and Cluster.LoadIndex still loads by name over a re-ingested
// log). Shards serialize in parallel, each folding its own pending dirt first;
// an empty shard contributes an empty section. Implements the
// digitaltraces.MappedPersister surface.
func (c *Cluster) SaveMappedIndex(w io.Writer) (int64, error) {
	return c.saveEnvelope(w, func(i int, w io.Writer) (int64, error) {
		mb, err := c.mappedShard(i)
		if err != nil {
			return 0, err
		}
		return mb.SaveMappedIndex(w)
	})
}

// saveEnvelope is the one envelope writer; save serializes shard i's image.
func (c *Cluster) saveEnvelope(w io.Writer, save func(i int, w io.Writer) (int64, error)) (int64, error) {
	sm := c.slotmap()
	bufs := make([]bytes.Buffer, len(c.shards))
	errs := make([]error, len(c.shards))
	runPool(len(c.shards), runtime.GOMAXPROCS(0), func(i int) {
		if c.shards[i].NumEntities() == 0 {
			return // empty shard: nothing indexed, empty section
		}
		_, errs[i] = save(i, &bufs[i])
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard: saving shard %d index: %w", i, err)
		}
	}
	slots := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+2*NumSlots+len(c.shards)), sm.epoch)
	for _, sh := range sm.assign {
		slots = binary.LittleEndian.AppendUint16(slots, uint16(sh))
	}
	for _, t := range sm.touched {
		b := byte(0)
		if t {
			b = 1
		}
		slots = append(slots, b)
	}
	// The global ordinal table, in first-arrival order. A name-resolved load
	// re-derives the order from the re-ingest and skips it; a mapped boot has
	// no re-ingest, and cross-shard degree ties must break as they did at save.
	c.mu.RLock()
	names := make([]string, len(c.ord))
	for name, o := range c.ord {
		names[o] = name
	}
	c.mu.RUnlock()
	var ord []byte
	for _, name := range names {
		if len(name) > math.MaxUint16 {
			return 0, fmt.Errorf("shard: entity name is %d bytes, the envelope caps names at %d", len(name), math.MaxUint16)
		}
		ord = binary.LittleEndian.AppendUint16(ord, uint16(len(name)))
		ord = append(ord, name...)
	}

	parts := [][]byte{slots, ord}
	secs := []secfile.Section{{Kind: secfile.Slots, Len: int64(len(slots))}, {Kind: secfile.Ordinals, Len: int64(len(ord))}}
	for i := range bufs {
		parts = append(parts, bufs[i].Bytes())
		secs = append(secs, secfile.Section{Kind: secfile.Shard, Len: int64(bufs[i].Len())})
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
	return sw.Close()
}

// envelope is a cluster file's two tables, decoded and validated; shard i's
// image is section 2+i of the reader it came from.
type envelope struct {
	epoch   uint64
	assign  [NumSlots]int
	touched []bool   // per saved shard
	names   []string // entity names in global arrival order
}

// readEnvelope is the one envelope reader: it checks that sr holds a cluster
// envelope, bounds every shard section, and decodes the slot map and the
// ordinal table.
func readEnvelope(sr *secfile.Reader) (*envelope, error) {
	if len(sr.Secs) < 3 || sr.Secs[0].Kind != secfile.Slots || sr.Secs[1].Kind != secfile.Ordinals {
		return nil, fmt.Errorf("shard: not a cluster envelope (first section is %v; a single-DB index loads via DB.LoadIndex or DB.LoadMappedIndex)", sr.Secs[0].Kind)
	}
	count := len(sr.Secs) - 2
	for i, sec := range sr.Secs[2:] {
		if sec.Kind != secfile.Shard {
			return nil, fmt.Errorf("shard: corrupt envelope: section %d is %v, want a shard image", 2+i, sec.Kind)
		}
		if sec.Len > maxShardSection {
			return nil, fmt.Errorf("shard: envelope section of shard %d claims %d bytes — corrupt envelope", i, sec.Len)
		}
	}
	if want := int64(8 + 2*NumSlots + count); sr.Secs[0].Len != want {
		return nil, fmt.Errorf("shard: corrupt envelope: slot map of %d bytes, %d shard sections need %d", sr.Secs[0].Len, count, want)
	}
	slots, err := sr.ReadAll(0)
	if err != nil {
		return nil, fmt.Errorf("shard: reading envelope slot map: %w", err)
	}
	env := &envelope{epoch: binary.LittleEndian.Uint64(slots), touched: make([]bool, count)}
	for s := range env.assign {
		env.assign[s] = int(binary.LittleEndian.Uint16(slots[8+2*s:]))
		if env.assign[s] >= count {
			return nil, fmt.Errorf("shard: envelope slot %d assigned to shard %d of %d — corrupt envelope", s, env.assign[s], count)
		}
	}
	for i := range env.touched {
		env.touched[i] = slots[8+2*NumSlots+i] != 0
	}
	ord, err := sr.ReadAll(1)
	if err != nil {
		return nil, fmt.Errorf("shard: reading envelope ordinal table: %w", err)
	}
	for q := 0; q < len(ord); {
		if q+2 > len(ord) {
			return nil, fmt.Errorf("shard: envelope ordinal table truncated at entry %d", len(env.names))
		}
		l := int(binary.LittleEndian.Uint16(ord[q:]))
		q += 2
		if q+l > len(ord) {
			return nil, fmt.Errorf("shard: envelope ordinal table truncated inside entry %d", len(env.names))
		}
		env.names = append(env.names, string(ord[q:q+l]))
		q += l
	}
	return env, nil
}

// LoadIndex warm-restarts the cluster from an envelope — with or without the
// shards' sequence sections — after the cluster's visit log has been
// re-ingested through the router. The load never adopts the envelope's slot
// map, touched flags or ordinals — the re-ingest is authoritative for all
// three — the saved map only says which entities each saved section
// describes, so every current shard loads the saved section sharing the most
// slots with it (ties to the lowest section), leniently: section entities the
// current map routes elsewhere are skipped and warm where they now live. A
// 4-shard envelope therefore loads into an 8-shard cluster (and vice versa);
// only entities whose section landed elsewhere pay a rebuild on their first
// refresh. Shards empty under the current routing stay index-less and build
// lazily.
func (c *Cluster) LoadIndex(r io.Reader) error {
	sr, err := secfile.NewReader(r)
	if err != nil {
		return fmt.Errorf("shard: loading cluster index: %w", err)
	}
	env, err := readEnvelope(sr)
	if err != nil {
		return err
	}
	cur := c.slotmap()
	overlap := make([][]int, len(c.shards))
	for o := range overlap {
		overlap[o] = make([]int, len(env.touched))
	}
	for s := 0; s < NumSlots; s++ {
		overlap[cur.assign[s]][env.assign[s]]++
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
	for i := range env.touched {
		if sr.Secs[2+i].Len == 0 {
			continue
		}
		// Read even when no shard wants it: a file cut inside a section is a
		// truncated envelope either way.
		section, err := sr.ReadAll(2 + i)
		if err != nil {
			return fmt.Errorf("shard: envelope truncated inside the section of shard %d: %w", i, err)
		}
		for o := range best {
			if best[o] != i {
				continue
			}
			if err := c.shards[o].LoadIndexLenient(bytes.NewReader(section)); err != nil {
				return fmt.Errorf("shard: loading section %d onto shard %d: %w", i, o, err)
			}
		}
	}
	return nil
}

// LoadMappedIndex maps a SaveMappedIndex envelope read-only and publishes
// every shard's section straight off the mapping (DB.LoadMappedIndexAt): no
// visit re-ingest, query-ready after the per-shard signature replays. The
// sections are physical images served in place, so the envelope's shard count
// must equal this cluster's (change topology through LoadIndex), its slot map
// must be the serving one, and the stored global ordinals must agree with any
// entities already registered here, so degree ties break exactly as they did
// at save. Afterwards every shard is in union-fold mode: SaveIndex is refused
// cluster-wide, persistence goes through SaveMappedIndex. Close unmaps the
// envelope — stop queries first.
//
// Every check that needs no shard load runs before the cluster changes at
// all: a refusal up to there leaves slot map, ordinals and shards as they
// were. On a failure inside a shard's load, shards already loaded keep
// serving their mapped sections (the mapping stays open until Close); the
// error names the shard that failed.
func (c *Cluster) LoadMappedIndex(path string) error {
	m, err := mmap.Open(path)
	if err != nil {
		return fmt.Errorf("shard: mapping cluster index %s: %w", path, err)
	}
	adopted := false
	defer func() {
		if !adopted {
			m.Close()
		}
	}()
	sr, err := secfile.NewReaderAt(m, m.Size())
	if err != nil {
		return fmt.Errorf("shard: loading mapped cluster index: %w", err)
	}
	env, err := readEnvelope(sr)
	if err != nil {
		return err
	}
	if len(env.touched) != len(c.shards) {
		return fmt.Errorf("shard: mapped envelope has %d shard sections, cluster has %d shards — a mapped image serves sections in place, so its shard count is pinned; to change topology, re-ingest the log at the new count and load the envelope by name (LoadIndex)", len(env.touched), len(c.shards))
	}
	backends := make([]mappedBackend, len(c.shards))
	for i := range c.shards {
		if sr.Secs[2+i].Len == 0 {
			continue // empty shard at save time: stays index-less, builds lazily
		}
		if backends[i], err = c.mappedShard(i); err != nil {
			return err
		}
	}
	next, err := c.reconcileMapped(env)
	if err != nil {
		return err
	}

	if next != nil {
		c.publishSlotMap(next)
	}
	// The mapping must outlive every shard snapshot published below, even if
	// a later shard fails — track it for Close before the first load.
	c.mu.Lock()
	c.mappings = append(c.mappings, m)
	c.mu.Unlock()
	adopted = true
	for i, mb := range backends {
		if mb == nil {
			continue
		}
		sec := sr.Secs[2+i]
		if err := mb.LoadMappedIndexAt(io.NewSectionReader(m, sec.Off, sec.Len), sec.Len); err != nil {
			return fmt.Errorf("shard: loading shard %d mapped index: %w", i, err)
		}
	}
	c.mu.Lock()
	if len(c.ord) == 0 {
		for i, name := range env.names {
			c.ord[name] = i
		}
	}
	c.mu.Unlock()
	return nil
}

// reconcileMapped checks a mapped envelope's ordinals and slot map against the
// cluster's and returns the map to publish once the load goes ahead (nil when
// the serving one stands). An empty cluster adopts both wholesale. A populated
// one (a re-ingested log) must agree on every stored ordinal — or cross-shard
// tie-breaking would silently differ from the save; entities registered beyond
// the stored ones sort after and are fine — and must already be routed exactly
// as the image was saved: a divergent map would filter answers under ownership
// the sections do not reflect. Either way the saved touched flags are honored:
// they mark shards whose image's local ingest order is misaligned with the
// global order, a property the mapped load preserves byte-for-byte.
func (c *Cluster) reconcileMapped(env *envelope) (*SlotMap, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cur := c.slotmap()
	if len(c.ord) == 0 {
		// The epoch stays monotone past any AssignSlots publishes that
		// preceded this load.
		return &SlotMap{epoch: max(env.epoch, cur.epoch+1), assign: env.assign, touched: env.touched}, nil
	}
	for i, name := range env.names {
		if o, ok := c.ord[name]; !ok || o != i {
			if !ok {
				o = -1
			}
			return nil, fmt.Errorf("shard: entity %q has global ordinal %d in the envelope but %d here — mapped envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order (or load into a fresh cluster)", name, i, o)
		}
	}
	for s, saved := range env.assign {
		if cur.assign[s] != saved {
			return nil, fmt.Errorf("shard: mapped envelope assigns slot %d to shard %d but this cluster routes it to shard %d — the log was re-ingested under a different slot map than the image froze; restore the saved map (AssignSlots before ingest) or load into a fresh cluster", s, saved, cur.assign[s])
		}
	}
	var next *SlotMap
	for i, t := range env.touched {
		if t && !cur.touched[i] {
			if next == nil {
				next = cur.clone()
				next.epoch++
			}
			next.touched[i] = true
		}
	}
	return next, nil
}
