package shard

// Cluster persistence: one envelope — a secfile container of
//
//	slots     the slot map that placed the entities: epoch u64, 256 × u16
//	          assignment
//	ordinals  the cluster-wide first-arrival order: u16-length-prefixed entity
//	          names
//	shard ×n  one DB image per shard (the root package's format), page-aligned;
//	          empty for a shard that held no entities; its entity table
//	          carries each entity's global ordinal as its tie key
//
// written by SaveIndex and opened by OpenIndex, which serves every section
// through its shard's Backend.OpenImage with no re-ingest: in place off one
// mapping for a local shard, sent whole to its shard server for a remote one.
// Shard count, slot map and ordinals must be the saved ones; a change of
// shard count re-ingests the log at the new count instead.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"digitaltraces/internal/mmap"
	"digitaltraces/internal/parallel"
	"digitaltraces/internal/secfile"
)

// SaveIndex persists every shard's index image as an envelope OpenIndex
// serves on a cluster of the same shard count, local or remote. Shards save
// in parallel, each covering every write it acknowledged; a shard with no
// entities writes an empty section. Implements the digitaltraces.Engine
// persistence surface.
func (c *Cluster) SaveIndex(w io.Writer) (int64, error) {
	sm := c.slotmap()
	bufs := make([]bytes.Buffer, len(c.shards))
	errs := make([]error, len(c.shards))
	parallel.For(len(c.shards), 0, func(i int) {
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
	slots := binary.LittleEndian.AppendUint64(make([]byte, 0, slotsLen), sm.epoch)
	for _, sh := range sm.assign {
		slots = binary.LittleEndian.AppendUint16(slots, uint16(sh))
	}
	// The global ordinal table, in first-arrival order: an open has no
	// re-ingest to derive it from, and cross-shard degree ties must break as
	// they did at save.
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

// slotsLen is the slot map section's size: the epoch and the assignment.
const slotsLen = 8 + 2*NumSlots

// envelope is a cluster file's two tables, decoded and validated; shard i's
// image is section 2+i of the reader it came from.
type envelope struct {
	epoch  uint64
	assign [NumSlots]int
	names  []string // entity names in global arrival order
}

// readEnvelope is the one envelope reader: it checks that sr holds a cluster
// envelope whose every section after the tables is a shard image (secfile
// has already bounded each by the file's real size), and decodes the slot
// map and the ordinal table.
func readEnvelope(sr *secfile.Reader) (*envelope, error) {
	if len(sr.Secs) < 3 || sr.Secs[0].Kind != secfile.Slots || sr.Secs[1].Kind != secfile.Ordinals {
		return nil, fmt.Errorf("shard: not a cluster envelope (first section is %v; a single-DB index opens through DB.OpenIndex)", sr.Secs[0].Kind)
	}
	count := len(sr.Secs) - 2
	for i, sec := range sr.Secs[2:] {
		if sec.Kind != secfile.Shard {
			return nil, fmt.Errorf("shard: corrupt envelope: section %d is %v, want a shard image", 2+i, sec.Kind)
		}
	}
	switch l := sr.Secs[0].Len; {
	case l == slotsLen+int64(count):
		return nil, fmt.Errorf("shard: the envelope's slot map carries a flag per shard, from before shards ranked by global ordinal: a retired index format — re-save the cluster index with this version")
	case l != slotsLen:
		return nil, fmt.Errorf("shard: corrupt envelope: slot map of %d bytes, want %d", l, slotsLen)
	}
	slots := sr.Bytes(0)
	env := &envelope{epoch: binary.LittleEndian.Uint64(slots)}
	for s := range env.assign {
		env.assign[s] = int(binary.LittleEndian.Uint16(slots[8+2*s:]))
		if env.assign[s] >= count {
			return nil, fmt.Errorf("shard: envelope slot %d assigned to shard %d of %d — corrupt envelope", s, env.assign[s], count)
		}
	}
	ord := sr.Bytes(1)
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

// OpenIndex maps a SaveIndex envelope read-only and serves every shard's
// section through that shard's Backend.OpenImage: no visit re-ingest,
// query-ready after the per-shard opens. A local shard serves its section in
// place off the mapping; a remote one receives it whole and its shard server
// opens it there. The sections are physical images, so the envelope's shard
// count must equal this cluster's (to change topology, re-ingest the log at
// the new count), its slot map must be the serving one, and its global
// ordinals must agree with the entities registered here, so degree ties break
// exactly as they did at save; the envelope's names past the registered ones
// (all of them, into an empty cluster) extend the registry. Close unmaps the
// envelope — stop queries first.
//
// Every check that needs no shard open runs before the cluster changes at
// all: a refusal up to there leaves slot map, ordinals and shards as they
// were. On a failure inside a shard's open, shards already opened keep
// serving their sections (the mapping stays open until Close); the error
// names the shard that failed. So do all shards when entities registered
// while the open ran took the ordinals the envelope's new names need: the
// open then refuses with "retry".
func (c *Cluster) OpenIndex(path string) error {
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
	sr, err := secfile.NewReader(m.Bytes())
	if err != nil {
		return fmt.Errorf("shard: opening cluster index: %w", err)
	}
	env, err := readEnvelope(sr)
	if err != nil {
		return err
	}
	if n := len(sr.Secs) - 2; n != len(c.shards) {
		return fmt.Errorf("shard: envelope has %d shard sections, cluster has %d shards — each section is one shard's image, so the shard count is pinned; to change topology, re-ingest the log at the new count and build", n, len(c.shards))
	}
	next, err := c.reconcile(env)
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
	for i, sh := range c.shards {
		b := sr.Bytes(2 + i)
		if len(b) == 0 {
			continue // empty shard at save time: stays index-less, builds lazily
		}
		if err := sh.OpenImage(b); err != nil {
			return fmt.Errorf("shard: opening shard %d index: %w", i, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, name := range env.names {
		if _, ok := c.ord[name]; ok {
			continue
		}
		if i != len(c.ord) {
			return fmt.Errorf("shard: %d entities were registered while the open ran, taking the ordinals the envelope's new entities need; retry", len(c.ord)-i)
		}
		c.ord[name] = i
	}
	return nil
}

// reconcile checks an envelope's ordinals and slot map against the
// cluster's and returns the map to publish once the load goes ahead (nil when
// the serving one stands). A name registered here must have its ordinal in
// the envelope — or cross-shard tie-breaking would silently differ from the
// save — and one not registered must have the next ordinal past the registry,
// which OpenIndex then extends with it. An empty cluster adopts the slot map;
// a populated one (a re-ingested log) must already be routed exactly as the
// image was saved: a divergent map would filter answers under ownership the
// sections do not reflect.
func (c *Cluster) reconcile(env *envelope) (*SlotMap, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ord := len(c.ord) // the next ordinal
	for i, name := range env.names {
		switch o, ok := c.ord[name]; {
		case !ok && i == ord:
			ord++
		case !ok:
			return nil, fmt.Errorf("shard: entity %q is not registered here, and its global ordinal %d in the envelope is not the next one (%d) — envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order", name, i, ord)
		case o != i:
			return nil, fmt.Errorf("shard: entity %q has global ordinal %d in the envelope but %d here — envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order", name, i, o)
		}
	}
	cur := c.slotmap()
	if len(c.ord) == 0 {
		// The epoch stays monotone past any AssignSlots publishes that
		// preceded this load.
		return &SlotMap{epoch: max(env.epoch, cur.epoch+1), assign: env.assign}, nil
	}
	for s, saved := range env.assign {
		if cur.assign[s] != saved {
			return nil, fmt.Errorf("shard: envelope assigns slot %d to shard %d but this cluster routes it to shard %d — the log was re-ingested under a different slot map than the image froze; restore the saved map (AssignSlots before ingest) or open it in a fresh cluster", s, saved, cur.assign[s])
		}
	}
	return nil, nil
}
