package shard

// The slot map: ownership as a data structure instead of a formula.
//
// A fixed entity→shard hash would pin the shard count and leave a hot shard
// hot forever, so routing is two-level:
//
//	entity ──FNV-1a mod NumSlots──▶ slot ──SlotMap──▶ shard
//
// The first hop is a fixed pure function (SlotOf): any process computes it
// with no lookup. The second hop is a small versioned table the cluster
// owns: 256 slots → shard ordinals, published atomically under a
// monotonically increasing epoch.
// Rebalancing moves a slot's entities to another shard and republishes the
// table; nothing about the entity→slot hop ever changes, so a saved envelope,
// a remote shard server and a coordinator only need to agree on the table —
// 512 bytes — to agree on placement.
//
// # Exactness across publishes
//
// Every query pins one *SlotMap for its whole fan-out and sends each shard the
// slots that map assigns it (SlotMask); the shard's search checks a
// candidate's slot against that mask before scoring it (gather.go), so an
// entity mid-migration — physically present on both the old and the new
// shard — contributes exactly one copy to every answer: the copy its pinned
// map says is the owner, and the other never counts toward its shard's cap.
// Ingest takes a per-slot read fence (Cluster.slotMu) and resolves the map
// after acquiring it, while a migration holds the slot's write fence across
// ship-and-publish — so the entity state a move ships is frozen, and no visit
// can land on the old owner after the new map is visible. The map carries
// nothing but ownership: every shard ranks by global ordinal (gather.go).

import (
	"fmt"
	"sync/atomic"
)

// NumSlots is the fixed size of the slot space. Like the FNV constants it
// must never change: slots are the stable unit every envelope, shard server
// and coordinator agrees on. 256 slots give a 4-shard cluster 64 movable
// units each — fine-grained enough for skew work, small enough that the
// whole table is 512 bytes on the wire.
const NumSlots = 256

// SlotOf routes an entity name to a slot: 32-bit FNV-1a over the raw name
// bytes (offset basis 2166136261, prime 16777619) mod NumSlots. This is the
// stable half of routing — a pure function fixed across processes, platforms
// and Go versions — so any client or shard server locates an entity's slot
// with no lookup, and only the small slot→shard table needs distributing.
func SlotOf(entity string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(entity); i++ {
		h ^= uint32(entity[i])
		h *= prime32
	}
	return int(h % NumSlots)
}

// SlotMap is one immutable version of the slot→shard assignment. The cluster
// publishes successive maps through an atomic pointer; readers pin one map
// for a whole operation and never observe a half-updated table.
type SlotMap struct {
	// epoch increases by one per publish. 0 is the pristine default map.
	epoch uint64
	// assign maps slot → shard ordinal.
	assign [NumSlots]int
}

// DefaultSlotMap is the epoch-0 assignment for n shards: slot s → s mod n.
func DefaultSlotMap(n int) *SlotMap {
	m := &SlotMap{}
	for s := range m.assign {
		m.assign[s] = s % n
	}
	return m
}

// SlotMask is a set of slots, one bit each: the slots one shard owns under
// one map, as a query sends them to that shard.
type SlotMask [NumSlots / 64]uint64

// Has reports whether slot is in the set.
func (m *SlotMask) Has(slot int) bool { return m[slot/64]>>(slot%64)&1 == 1 }

// Owned returns the slots this map assigns to shard.
func (m *SlotMap) Owned(shard int) SlotMask {
	var mask SlotMask
	for s, sh := range m.assign {
		if sh == shard {
			mask[s/64] |= 1 << (s % 64)
		}
	}
	return mask
}

// Owner returns the shard ordinal owning the entity under this map.
func (m *SlotMap) Owner(entity string) int { return m.assign[SlotOf(entity)] }

// Epoch returns the map's publish version.
func (m *SlotMap) Epoch() uint64 { return m.epoch }

// Assignment returns a copy of the slot→shard table.
func (m *SlotMap) Assignment() []int {
	out := make([]int, NumSlots)
	copy(out, m.assign[:])
	return out
}

// slotmap returns the cluster's current map. Callers that correlate several
// reads (route, then filter) must call once and keep the pointer — the map
// behind the pointer never mutates, only gets replaced.
func (c *Cluster) slotmap() *SlotMap { return c.slots.Load() }

// epochPusher is the optional backend surface for distributing the slot-map
// epoch to shard servers (shard/remote.Client implements it); shard servers
// piggyback the epoch on every response so a second, staler coordinator
// fails loudly instead of wrong-routing.
type epochPusher interface{ PushSlotEpoch(uint64) error }

// publishSlotMap swaps the serving map and distributes the new epoch to
// every remote shard, best-effort: the push is an anti-entropy signal for
// foreign coordinators, not a commit protocol — this coordinator's own
// routing switched the moment the pointer did.
func (c *Cluster) publishSlotMap(m *SlotMap) {
	c.slots.Store(m)
	for _, sh := range c.shards {
		if p, ok := sh.(epochPusher); ok {
			p.PushSlotEpoch(m.epoch) // best-effort; piggybacked state self-heals
		}
	}
}

// SlotEpoch returns the current slot-map epoch.
func (c *Cluster) SlotEpoch() uint64 { return c.slotmap().epoch }

// SlotAssignment returns a copy of the current slot→shard table, in slot
// order — the /stats slot table.
func (c *Cluster) SlotAssignment() []int { return c.slotmap().Assignment() }

// AssignSlots replaces the slot→shard assignment wholesale. Only an empty
// cluster (nothing ingested yet) may be re-assigned — entities already
// placed under the old map would be orphaned, which is MigrateSlot's job to
// do safely — so this is the bootstrap hook for engineered placements:
// benchmarks and smoke tests build deliberately skewed clusters, and a
// restored deployment re-creates the map its envelope recorded before
// re-ingesting. assign must have NumSlots entries, each a valid ordinal.
func (c *Cluster) AssignSlots(assign []int) error {
	if len(assign) != NumSlots {
		return fmt.Errorf("shard: AssignSlots needs %d entries, got %d", NumSlots, len(assign))
	}
	for s, sh := range assign {
		if sh < 0 || sh >= len(c.shards) {
			return fmt.Errorf("shard: AssignSlots slot %d → shard %d, cluster has %d shards", s, sh, len(c.shards))
		}
	}
	c.mu.RLock()
	populated := c.next > 0 // an ordinal given out: a batch stored or in flight
	c.mu.RUnlock()
	if populated {
		return fmt.Errorf("shard: AssignSlots on a populated cluster — slots move with MigrateSlot once entities exist")
	}
	next := *c.slotmap()
	next.epoch++
	copy(next.assign[:], assign)
	c.publishSlotMap(&next)
	return nil
}

// checkSlotEpoch fails when any shard has seen a newer slot map than this
// coordinator holds: another coordinator migrated slots, and routing by the
// stale table would send ingest to surrendered shards and filter answers
// under dead ownership. Shard epochs are read from the clients' piggybacked
// state (no round trips) *before* the local epoch, so a migration this
// coordinator is publishing concurrently can only make the check
// conservative, never a false positive.
func (c *Cluster) checkSlotEpoch() error {
	var newest uint64
	for _, sh := range c.shards {
		if se, ok := sh.(interface{ SlotEpoch() uint64 }); ok {
			if e := se.SlotEpoch(); e > newest {
				newest = e
			}
		}
	}
	if cur := c.slotmap().epoch; newest > cur {
		return fmt.Errorf("shard: a shard reports slot-map epoch %d but this coordinator holds %d — a newer coordinator has migrated slots; this one must be restarted with the current map", newest, cur)
	}
	return nil
}

// slotsOwned counts the slots assigned to each shard under the current map.
func (c *Cluster) slotsOwned() []int {
	m := c.slotmap()
	out := make([]int, len(c.shards))
	for _, sh := range m.assign {
		out[sh]++
	}
	return out
}

// slotsPtr exists so the Cluster struct literal in NewCluster stays tidy.
type slotsPtr = atomic.Pointer[SlotMap]
