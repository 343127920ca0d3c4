package shard

// Skew-aware rebalancing: turn the placement statistics ShardStats already
// exposes into a plan of slot moves, then execute it with MigrateSlot.
// Personal-trace workloads are heavily skewed across users and sources, so
// hash placement alone leaves hot shards hot forever; the planner here is
// deliberately greedy and local — shave the most-loaded shard toward the
// least-loaded one, one slot at a time — because each move is live and
// exact, so there is no penalty for executing a plan incrementally and
// re-planning later as the skew drifts.

import "fmt"

// SlotLoads counts the entities owned by each slot, from the global
// registry: the names some shard stored. This is the planner's load signal:
// it reflects ownership under any map (SlotOf is map-independent) and, unlike
// per-shard physical counts, is immune to the stale copies migrations leave
// behind.
func (c *Cluster) SlotLoads() [NumSlots]int {
	var loads [NumSlots]int
	c.mu.RLock()
	for name := range c.ord {
		loads[SlotOf(name)]++
	}
	c.mu.RUnlock()
	return loads
}

// SlotMove is one step of a rebalance plan: reassign Slot from shard From to
// shard To.
type SlotMove struct {
	Slot int `json:"slot"`
	From int `json:"from"`
	To   int `json:"to"`
}

// PlanRebalance computes up to maxMoves slot moves that reduce the per-shard
// owned-entity skew of assign (slot→shard, NumSlots entries) given per-slot
// loads. Greedy: each step moves, from the currently most-loaded shard to
// the currently least-loaded one, the slot whose load is closest to half
// their gap without overshooting — the move that best evens that pair — and
// stops when no single slot still helps. Pure over its inputs, so planning
// is testable (and previewable) without touching a cluster.
func PlanRebalance(assign []int, loads [NumSlots]int, shards, maxMoves int) []SlotMove {
	if shards < 2 || len(assign) != NumSlots {
		return nil
	}
	totals := make([]int, shards)
	owner := make([]int, NumSlots)
	copy(owner, assign)
	for s, sh := range owner {
		totals[sh] += loads[s]
	}
	var plan []SlotMove
	for len(plan) < maxMoves {
		max, min := 0, 0
		for sh := range totals {
			if totals[sh] > totals[max] {
				max = sh
			}
			if totals[sh] < totals[min] {
				min = sh
			}
		}
		gap := totals[max] - totals[min]
		if gap < 2 {
			break // within one entity of even — nothing a move can improve
		}
		// The slot to move: load as close to gap/2 as possible, but strictly
		// inside (0, gap) so the move strictly shrinks this pair's spread.
		best, bestDist := -1, 0
		for s, sh := range owner {
			if sh != max {
				continue
			}
			l := loads[s]
			if l <= 0 || l >= gap {
				continue
			}
			d := 2*l - gap // distance from gap/2, times 2 (stays integral)
			if d < 0 {
				d = -d
			}
			if best == -1 || d < bestDist || (d == bestDist && s < best) {
				best, bestDist = s, d
			}
		}
		if best == -1 {
			break // every movable slot would overshoot (or is empty)
		}
		owner[best] = min
		totals[max] -= loads[best]
		totals[min] += loads[best]
		plan = append(plan, SlotMove{Slot: best, From: max, To: min})
	}
	return plan
}

// RebalanceReport summarizes one Rebalance call: the moves executed and the
// owned-entity skew on both sides — max and mean per-shard owned counts,
// plus their ratio (1.0 = perfectly even).
type RebalanceReport struct {
	Moves      []SlotMove `json:"moves"`
	BeforeMax  int        `json:"before_max"`
	BeforeMean float64    `json:"before_mean"`
	BeforeSkew float64    `json:"before_skew"`
	AfterMax   int        `json:"after_max"`
	AfterMean  float64    `json:"after_mean"`
	AfterSkew  float64    `json:"after_skew"`
}

// ownedSkew computes the (max, mean, max/mean) of per-shard owned-entity
// counts under the current map.
func (c *Cluster) ownedSkew() (int, float64, float64) {
	loads := c.SlotLoads()
	sm := c.slotmap()
	totals := make([]int, len(c.shards))
	for s, cnt := range loads {
		totals[sm.assign[s]] += cnt
	}
	max, sum := 0, 0
	for _, t := range totals {
		if t > max {
			max = t
		}
		sum += t
	}
	mean := float64(sum) / float64(len(totals))
	skew := 1.0
	if mean > 0 {
		skew = float64(max) / mean
	}
	return max, mean, skew
}

// Rebalance plans against the current registry and slot map, then executes
// the plan with live MigrateSlot calls, sequentially — each move fences only
// its own slot, and a short queue of exact moves beats one long freeze.
// maxMoves ≤ 0 means "as many as keep helping" (at most NumSlots). Safe to
// call on a balanced cluster: the plan comes back empty and nothing moves.
func (c *Cluster) Rebalance(maxMoves int) (RebalanceReport, error) {
	if maxMoves <= 0 {
		maxMoves = NumSlots
	}
	var rep RebalanceReport
	rep.BeforeMax, rep.BeforeMean, rep.BeforeSkew = c.ownedSkew()
	loads := c.SlotLoads()
	plan := PlanRebalance(c.slotmap().Assignment(), loads, len(c.shards), maxMoves)
	for _, mv := range plan {
		if err := c.MigrateSlot(mv.Slot, mv.To); err != nil {
			rep.AfterMax, rep.AfterMean, rep.AfterSkew = c.ownedSkew()
			return rep, fmt.Errorf("shard: rebalance move %d/%d (slot %d → shard %d): %w",
				len(rep.Moves)+1, len(plan), mv.Slot, mv.To, err)
		}
		rep.Moves = append(rep.Moves, mv)
	}
	rep.AfterMax, rep.AfterMean, rep.AfterSkew = c.ownedSkew()
	return rep, nil
}
