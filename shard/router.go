package shard

// The router decides which shard owns an entity and remembers the order
// entities first arrived. Ownership is two-level (slotmap.go): the stable
// FNV-1a hash places an entity in one of 256 fixed slots, and the cluster's
// versioned slot map assigns each slot to a shard — so placement is
// computable by any process holding the (tiny) current map, and the map can
// change: MigrateSlot moves a slot's entities to another shard and publishes
// a new map under a bumped epoch. The arrival order is the cluster-wide
// substitute for the single DB's entity-ID assignment order: every record
// carries its entity's ordinal to the shard, which breaks degree ties by it.
// It is placement-independent, which is why answers stay bit-identical
// across migrations.

import "digitaltraces"

// register assigns global first-arrival ordinals to the visits' entities not
// seen before, in slice order, under one lock acquisition, and returns each
// visit's entity's ordinal.
func (c *Cluster) register(visits []digitaltraces.VisitRecord) []uint32 {
	ords := make([]uint32, len(visits))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range visits {
		o, ok := c.ord[v.Entity]
		if !ok {
			o = len(c.ord)
			c.ord[v.Entity] = o
		}
		ords[i] = uint32(o)
	}
	return ords
}
