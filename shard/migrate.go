package shard

// Live slot migration: move one slot's entities to another shard while
// ingest and queries keep running, without ever returning a non-exact
// answer.
//
// The protocol leans on three fences already in place:
//
//  1. The per-slot ingest fence (Cluster.slotMu). MigrateSlot holds the
//     write side for the whole move, so the slot's entity state is frozen —
//     the visit suffix shipped below is complete, and the first post-move
//     visit routes to the new owner because AddVisits resolves the
//     map only after acquiring the read side.
//  2. Atomic map publish (slotmap.go). Queries pin one map; a query that
//     pinned the old map keeps answering from the source's (complete,
//     frozen) copy, one that pins the new map answers from the target's —
//     the ownership mask each shard's search checks picks exactly one copy
//     either way.
//  3. The sticky touched flags. The target's local IDs for the shipped
//     entities are fresh, so its local order stops matching global arrival
//     order; flagging it (and the source, which now carries stale copies)
//     makes every future query ask those shards for complete ties.
//
// State ships through the existing ingest primitives — VisitsOf on the
// source, one AddVisits batch on the target, which returns with the target's
// index covering it — not through the /shard/index image POST: an image open
// replaces a shard's whole index, which is a restart-time operation,
// while a migration must compose with whatever else the target is serving.
// The same code therefore moves slots between in-process DBs and remote
// shard servers alike, since both sit behind Backend.

import (
	"fmt"
	"sort"
	"strings"

	"digitaltraces"
)

// MigrateSlot moves ownership of one slot to the target shard: ships every
// owned entity's full visit history to the target, indexed there when the
// ship returns, and publishes a new slot map under a bumped epoch. Ingest
// for the slot blocks for the duration (queries never block); concurrent
// queries stay bit-for-bit exact throughout — the property suite's
// standard. Moving a slot to its current owner is a no-op. On a failed ship
// — a refused record or a failed fold on the target — the map is
// republished with the target marked touched and ownership unchanged: the
// target may hold a partial foreign copy, which the ownership mask hides
// forever, and the slot remains fully served by the source.
func (c *Cluster) MigrateSlot(slot, target int) error {
	if slot < 0 || slot >= NumSlots {
		return fmt.Errorf("shard: MigrateSlot slot %d out of range [0,%d)", slot, NumSlots)
	}
	if target < 0 || target >= len(c.shards) {
		return fmt.Errorf("shard: MigrateSlot target shard %d out of range [0,%d)", target, len(c.shards))
	}
	c.slotMu[slot].Lock()
	defer c.slotMu[slot].Unlock()
	sm := c.slotmap()
	src := sm.assign[slot]
	if src == target {
		return nil
	}

	// Snapshot the slot's members from the registry, in global arrival
	// order. Any entity ingested after this point is blocked on the fence,
	// so the list is complete.
	type member struct {
		name string
		ord  int
	}
	var members []member
	c.mu.RLock()
	for name, o := range c.ord {
		if SlotOf(name) == slot {
			members = append(members, member{name, o})
		}
	}
	c.mu.RUnlock()
	sort.Slice(members, func(a, b int) bool { return members[a].ord < members[b].ord })

	var recs []digitaltraces.VisitRecord
	for _, m := range members {
		vs, err := c.shards[src].VisitsOf(m.name)
		if err != nil {
			// A registered name the source has never stored: the entity's
			// every visit failed validation. There is no state to move.
			if strings.Contains(err.Error(), "unknown entity") {
				continue
			}
			return fmt.Errorf("shard: migrating slot %d: reading %q from shard %d: %w", slot, m.name, src, err)
		}
		for _, v := range vs {
			recs = append(recs, digitaltraces.VisitRecord{Entity: m.name, Venue: v.Venue, Start: v.Start, End: v.End})
		}
	}
	if len(recs) > 0 {
		if _, err := c.shards[target].AddVisits(recs); err != nil {
			// The target may now hold a partial foreign copy; publish the
			// touched flag (ownership unchanged) so no future query trusts
			// the target's local order, then surface the failure.
			failed := sm.clone()
			failed.epoch++
			failed.touched[target] = true
			c.publishSlotMap(failed)
			return fmt.Errorf("shard: migrating slot %d: shipping %d visits to shard %d: %w", slot, len(recs), target, err)
		}
	}

	next := sm.clone()
	next.epoch++
	next.assign[slot] = target
	if len(recs) > 0 {
		// The target's fresh local IDs break its order alignment; the source
		// keeps copies it no longer owns. An empty move disturbs neither.
		next.touched[src] = true
		next.touched[target] = true
	}
	c.publishSlotMap(next)
	return nil
}
