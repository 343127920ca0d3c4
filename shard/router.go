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

// register reserves global first-arrival ordinals for the visits' names not
// seen before, in slice order, under one lock acquisition, and returns each
// visit's entity's ordinal and fresh: the names no shard has stored yet.
func (c *Cluster) register(visits []digitaltraces.VisitRecord) (ords []uint32, fresh []string) {
	ords = make([]uint32, len(visits))
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.next // a pending ordinal from here on was reserved by this call, its name already fresh
	for i, v := range visits {
		o, ok := c.ord[v.Entity]
		if !ok {
			switch o, ok = c.pending[v.Entity]; {
			case !ok:
				o = c.next
				c.next++
				c.pending[v.Entity] = o
				fresh = append(fresh, v.Entity)
			case o < first: // reserved by another batch, refused or still in flight
				fresh = append(fresh, v.Entity)
			}
		}
		ords[i] = uint32(o)
	}
	return ords, fresh
}

// acknowledge registers the fresh names some shard stored: a shard stores a
// prefix of its group. A name no shard stored stays reserved, with its
// ordinal, and counts for nothing — nor does one whose shard's reply was
// lost: the cluster counts what shards acknowledged.
func (c *Cluster) acknowledge(fresh []string, groups [][]digitaltraces.VisitRecord, counts []int) {
	var stored map[string]bool // nil: every shard stored its whole group
	for s := range groups {
		if counts[s] < len(groups[s]) {
			stored = map[string]bool{}
		}
	}
	for s := 0; stored != nil && s < len(groups); s++ {
		for _, v := range groups[s][:counts[s]] {
			stored[v.Entity] = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range fresh {
		if o, ok := c.pending[name]; ok && (stored == nil || stored[name]) {
			c.ord[name] = o
			delete(c.pending, name)
		}
	}
	if len(c.pending) == 0 {
		c.pending = map[string]int{} // a drained map keeps its buckets: drop them
	}
}
