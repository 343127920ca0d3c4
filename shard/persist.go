package shard

// Cluster persistence: one envelope — a secfile container of
//
//	slots     the slot map that placed the entities: epoch u64, 256 × u16
//	          assignment
//	shard ×n  one DB image per shard (the root package's format), page-aligned;
//	          empty for a shard that held no entities; its entity table
//	          carries each entity's name and global ordinal (its tie key)
//
// written by SaveIndex and opened by OpenIndex, which reads the registry from
// the images and serves every section through its shard's Backend.OpenImage
// with no re-ingest: in place off one mapping for a local shard, sent whole to
// its shard server for a remote one. Shard count, slot map and registered
// ordinals must be the saved ones; a change of shard count re-ingests.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"digitaltraces/internal/core"
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
	parts := [][]byte{slots}
	secs := []secfile.Section{{Kind: secfile.Slots, Len: int64(len(slots))}}
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

// envelope is a cluster file's slot map and registry, decoded and validated;
// shard i's image is section 1+i of the reader it came from.
type envelope struct {
	epoch  uint64
	assign [NumSlots]int
	ords   map[string]int // every entity a shard image holds, by its global ordinal
}

// readEnvelope is the one envelope reader: it checks that sr holds a slot map
// and shard images (secfile has already bounded each by the file's real
// size) and reads the registry from the images' entity tables. A stale copy a
// migration left behind carries its entity's ordinal; a name with two
// ordinals is a corrupt envelope.
func readEnvelope(sr *secfile.Reader) (*envelope, error) {
	switch {
	case len(sr.Secs) < 2 || sr.Secs[0].Kind != secfile.Slots:
		return nil, fmt.Errorf("shard: not a cluster envelope (first section is %v; a single-DB index opens through DB.OpenIndex)", sr.Secs[0].Kind)
	case sr.Secs[1].Kind == secfile.Ordinals:
		return nil, fmt.Errorf("shard: the envelope carries an ordinal table %q, from before the registry was read from the shard images: a retired index format — re-save the cluster index with this version", secfile.Ordinals)
	}
	count := len(sr.Secs) - 1
	if l := sr.Secs[0].Len; l != slotsLen {
		return nil, fmt.Errorf("shard: corrupt envelope: slot map of %d bytes, want %d", l, slotsLen)
	}
	slots := sr.Bytes(0)
	env := &envelope{epoch: binary.LittleEndian.Uint64(slots), ords: map[string]int{}}
	for s := range env.assign {
		env.assign[s] = int(binary.LittleEndian.Uint16(slots[8+2*s:]))
		if env.assign[s] >= count {
			return nil, fmt.Errorf("shard: envelope slot %d assigned to shard %d of %d — corrupt envelope", s, env.assign[s], count)
		}
	}
	for i := range count {
		if k := sr.Secs[1+i].Kind; k != secfile.Shard {
			return nil, fmt.Errorf("shard: corrupt envelope: section %d is %v, want a shard image", 1+i, k)
		}
		b := sr.Bytes(1 + i)
		if len(b) == 0 {
			continue // an empty shard
		}
		img, err := secfile.NewReader(b)
		var ents []core.SnapshotEntity
		if err == nil {
			ents, err = core.ReadEntities(img)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: envelope shard %d image: %w", i, err)
		}
		for _, e := range ents {
			if o, ok := env.ords[e.Name]; ok && o != int(e.Key) {
				return nil, fmt.Errorf("shard: corrupt envelope: entity %q has global ordinal %d on shard %d but %d on another shard", e.Name, e.Key, i, o)
			}
			env.ords[e.Name] = int(e.Key)
		}
	}
	return env, nil
}

// OpenIndex maps a SaveIndex envelope read-only and serves every shard's
// section through that shard's Backend.OpenImage, with no visit re-ingest: a
// local shard serves it in place off the mapping, a remote one's shard server
// opens it there. The sections are physical images, so the envelope's shard
// count must equal this cluster's (to change topology, re-ingest the log at
// the new count), its slot map must be the serving one, and the global
// ordinals its images carry must agree with the entities registered here, so
// degree ties break exactly as they did at save; the images' other entities
// (all of them, into an empty cluster) extend the registry, and the next
// ordinal given out is past every saved one. Close unmaps the envelope —
// stop queries first.
//
// Every check that needs no shard open runs before the cluster changes at
// all: a refusal up to there leaves slot map, registry and shards as they
// were. On a failure inside a shard's open, shards already opened keep
// serving their sections (the mapping stays open until Close); the error
// names the shard that failed. So do all shards when entities registered
// while the open ran took ordinals the envelope's entities need: the open
// then refuses with "retry".
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
	if n := len(sr.Secs) - 1; n != len(c.shards) {
		return fmt.Errorf("shard: envelope has %d shard sections, cluster has %d shards — each section is one shard's image, so the shard count is pinned; to change topology, re-ingest the log at the new count and build", n, len(c.shards))
	}
	c.mu.RLock()
	next, err := c.reconcile(env)
	c.mu.RUnlock()
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
		b := sr.Bytes(1 + i)
		if len(b) == 0 {
			continue // empty shard at save time: stays index-less, builds lazily
		}
		if err := sh.OpenImage(b); err != nil {
			return fmt.Errorf("shard: opening shard %d index: %w", i, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.reconcile(env); err != nil {
		return fmt.Errorf("%w; entities were registered while the open ran — retry", err)
	}
	for name, o := range env.ords {
		delete(c.pending, name)
		c.ord[name] = o
		c.next = max(c.next, o+1)
	}
	return nil
}

// reconcile checks an envelope's registry and slot map against the cluster's,
// under c.mu, and returns the map to publish once the load goes ahead (nil
// when the serving one stands). A name with an ordinal here must have that
// ordinal in the envelope — or cross-shard tie-breaking would silently differ
// from the save — and one without must have one no name here was given. An
// empty cluster adopts the slot map; a populated one (a re-ingested log) must
// already be routed exactly as the image was saved: a divergent map would
// filter answers under ownership the sections do not reflect.
func (c *Cluster) reconcile(env *envelope) (*SlotMap, error) {
	for name, saved := range env.ords {
		o, ok := c.ord[name]
		if !ok {
			o, ok = c.pending[name]
		}
		switch {
		case ok && o != saved:
			return nil, fmt.Errorf("shard: entity %q has global ordinal %d in the envelope but %d here — envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order", name, saved, o)
		case !ok && saved < c.next:
			return nil, fmt.Errorf("shard: entity %q is not registered here, and its global ordinal %d in the envelope was already given out here (the next is %d) — envelopes resolve tie-break order by save-time arrival, so re-ingest the visit log in its original order", name, saved, c.next)
		}
	}
	cur := c.slotmap()
	if c.next == 0 {
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
