package shard

// The router decides which shard owns an entity and remembers the order
// entities first arrived. Ownership is two-level (slotmap.go): the stable
// FNV-1a hash places an entity in one of 256 fixed slots, and the cluster's
// versioned slot map assigns each slot to a shard — so placement is
// computable by any process holding the (tiny) current map, and the map can
// change: MigrateSlot moves a slot's entities to another shard and publishes
// a new map under a bumped epoch. The arrival order is the cluster-wide
// substitute for the single DB's entity-ID assignment order, used only to
// break exact-degree ties across shards deterministically; it is placement-
// independent, which is why answers stay bit-identical across migrations.

// register assigns global first-arrival ordinals to any names not seen
// before, in slice order, under one lock acquisition.
func (c *Cluster) register(names []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		if _, ok := c.ord[name]; !ok {
			c.ord[name] = len(c.ord)
		}
	}
}
