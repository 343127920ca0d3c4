// Package shard scales digitaltraces horizontally inside one process: a
// Cluster partitions entities across N independent digitaltraces.DB shards
// through a versioned slot map, routes ingest to each entity's owning shard,
// builds all shards in parallel, and answers top-k queries with at most two
// waves of one stateless call per shard — the query entity's home shard
// first, for its visits and a floor, then every other shard at that floor —
// merged by one sort (gather.go).
//
// # Exactness
//
// Partitioning preserves the paper's exact-answer guarantee. The association
// degree between the query and a candidate depends only on their two ST-cell
// sequences, so each shard computes exact degrees for its own entities; and
// because every shard ranks under the same total order the single-DB search
// uses (degree descending, ties by ingest order), an entity a shard did not
// return is either strictly below the final k-th degree or preceded by at
// least k entities from that shard alone, and can never enter the global
// top-k (gather.go's argument). Merging the replies and truncating to k is
// therefore lossless: a Cluster returns bit-identical entities and degrees to
// a single DB over the same data — the invariant TestClusterExactness locks
// in for N ∈ {1, 2, 4, 8}.
//
// Placement itself is a versioned slot map rather than a fixed hash
// (slotmap.go): every query pins one map for its whole fan-out, asks each
// shard for the entities that map assigns it, and asks shards whose local
// order a past migration disturbed for complete ties — so answers stay
// bit-identical before, during and after a live MigrateSlot, the invariant
// the migration property suite locks in.
//
// Two mechanical preconditions make the degree computations line up:
// every shard must share one epoch and time unit (NewCluster verifies this),
// and the fan-out must reproduce the query entity's stored cells exactly,
// which DB.VisitsOf / DB.Rank guarantee by round-tripping the
// discretization.
//
// # Concurrency and locking
//
// Each shard is an independent DB, so the cluster has N independent
// synchronization domains instead of one: ingest for entity A only touches
// A's shard's ingest lock, and shard index builds run truly in parallel (the
// wall-clock build speedup cmd/bench records). Every shard serves queries
// from its own atomically swapped immutable index snapshot, so each shard's
// call pins one frozen snapshot and never waits for a shard's fold or rebuild — a shard absorbing
// new data builds the next snapshot aside and swaps it in before it
// acknowledges the write, so the snapshot a query pins already covers every
// write acknowledged before the query began. The Cluster itself adds only a
// small mutex around the entity→ordinal routing registry; no query ever
// holds a global lock.
//
// A Cluster satisfies digitaltraces.Engine, so package server serves it with
// zero endpoint changes (cmd/serve -shards N).
package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"digitaltraces"
	"digitaltraces/internal/mmap"
	"digitaltraces/internal/obs"
	"digitaltraces/internal/qcache"
)

// Config describes a cluster.
type Config struct {
	// Shards is the number of partitions (≥ 1).
	Shards int
	// NewShard builds the i-th empty shard. All shards must be constructed
	// over the same hierarchy with the same time unit and an explicit, shared
	// epoch (digitaltraces.WithEpoch, or a grid DB's implicit Unix epoch) so
	// that every shard discretizes a visit to the same ST-cells; NewCluster
	// rejects incompatible or pre-populated shards.
	NewShard func(i int) (*digitaltraces.DB, error)
	// Backends, when non-empty, supplies the shards directly instead of
	// Shards/NewShard — the network-distributed composition: each Backend is
	// typically a shard/remote.Client connected to a shard server process
	// (cmd/shardserve), though in-process DBs wrapped by Local mix in freely.
	// The same compatibility and emptiness rules apply: NewCluster verifies
	// one shared epoch, unit and hierarchy, and rejects pre-populated
	// backends — the coordinator's global arrival-order registry (which fixes
	// cross-shard degree-tie order) can only be built by routing all ingest
	// through the Cluster.
	Backends []Backend
	// CacheSize, when positive, equips the cluster with a generation-keyed
	// hot-query cache of that many entries: TopK/TopKByExample answers, and
	// every TopKBatch item's, are memoized under the slot-map epoch plus the
	// vector of shard snapshot generations and served without any fan-out
	// while every shard's snapshot covers its acknowledged writes and none
	// has changed (cache.go). Per-shard digitaltraces.WithQueryCache caches are never
	// consulted — a shard answers a cluster query through DB.Rank, which
	// bypasses them.
	CacheSize int
	// InitialSlots, when non-nil, is the slot→shard assignment the cluster
	// starts from instead of the default s mod N table: NumSlots entries,
	// each a valid shard ordinal, applied (via AssignSlots) before anything
	// is ingested. This is the bootstrap hook for engineered placements —
	// deliberately skewed benchmark clusters, or a restored deployment
	// re-creating the map its envelope recorded before re-ingesting.
	InitialSlots []int
	// TraceSize, when positive, equips the cluster with a coordinator-level
	// query-trace ring of that many slots (internal/obs): every cluster
	// query records a structured trace with the per-shard scatter-gather
	// breakdown, served through Tracer() and the server's /traces endpoint.
	// ≤ 0 (the default) disables tracing — zero allocation on the hot path.
	TraceSize int
}

// Cluster is an entity-partitioned composition of DB shards answering exact
// top-k association queries. It satisfies digitaltraces.Engine; see the
// package comment for the exactness argument and the lock topology. Create
// one with NewCluster (empty) or Partition (from an existing DB).
type Cluster struct {
	shards []Backend

	// slots is the atomically published slot→shard routing table
	// (slotmap.go). Readers pin one map per operation; MigrateSlot and
	// AssignSlots publish successors under a bumped epoch.
	slots slotsPtr

	// slotMu is the per-slot ingest fence: AddVisits holds the read side for
	// each visited slot while routing, and MigrateSlot holds the
	// write side across ship-and-publish, so the entity state a move ships
	// is frozen and no visit lands on the old owner after the flip.
	slotMu [NumSlots]sync.RWMutex

	// mu guards ord, the global first-arrival ordinal per entity name. The
	// single-DB search breaks degree ties by entity ID — ingest order — so
	// the merge sorts ties by the cluster-wide arrival order to reproduce
	// single-DB answers bit-for-bit (merge.go).
	mu  sync.RWMutex
	ord map[string]int

	// cache is the cluster-level generation-keyed query cache (nil unless
	// Config.CacheSize > 0); cache.go supplies its version, internal/qcache
	// the protocol and its soundness argument.
	cache *qcache.Cache[[]digitaltraces.Match]

	// tracer is the coordinator-level query-trace ring (nil unless
	// Config.TraceSize > 0); see trace.go.
	tracer *obs.Tracer

	// mappings holds the read-only envelope mappings opened by
	// OpenIndex (guarded by mu); Close unmaps them after the shards.
	mappings []*mmap.Mapping
}

var _ digitaltraces.Engine = (*Cluster)(nil)

// Local wraps an in-process DB as a Backend, for mixing library-held shards
// into a Config.Backends composition (NewCluster's Config.NewShard path wraps
// its DBs itself).
func Local(db *digitaltraces.DB) Backend { return local{db} }

// NewCluster creates an empty cluster of cfg.Shards shards (or over the
// supplied cfg.Backends — in-process DBs, remote shard clients, or a mix).
// Shards must be mutually compatible: same venue count, hierarchy height and
// time unit, and one shared epoch already fixed (an epoch inferred later from
// data would differ per shard and skew time discretization across the
// partition).
//
// On error, shards already constructed are Closed.
func NewCluster(cfg Config) (_ *Cluster, err error) {
	var shards []Backend
	defer func() {
		if err == nil {
			return
		}
		for _, sh := range shards {
			sh.Close()
		}
	}()
	switch {
	case len(cfg.Backends) > 0:
		if cfg.NewShard != nil {
			return nil, fmt.Errorf("shard: Config.Backends and Config.NewShard are mutually exclusive")
		}
		if cfg.Shards != 0 && cfg.Shards != len(cfg.Backends) {
			return nil, fmt.Errorf("shard: Config.Shards = %d but %d backends were supplied", cfg.Shards, len(cfg.Backends))
		}
		for i, b := range cfg.Backends {
			if b == nil {
				return nil, fmt.Errorf("shard: Config.Backends[%d] is nil", i)
			}
		}
		shards = cfg.Backends
	case cfg.Shards < 1:
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", cfg.Shards)
	case cfg.NewShard == nil:
		return nil, fmt.Errorf("shard: Config.NewShard is nil")
	default:
		shards = make([]Backend, 0, cfg.Shards)
		for i := 0; i < cfg.Shards; i++ {
			db, err := cfg.NewShard(i)
			if err != nil {
				return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
			}
			if db == nil {
				return nil, fmt.Errorf("shard: NewShard(%d) returned nil", i)
			}
			shards = append(shards, local{db})
		}
	}
	epoch, ok := shards[0].Epoch()
	if !ok {
		return nil, fmt.Errorf("shard: shard 0 has no epoch; construct shards with digitaltraces.WithEpoch (or NewGridDB) so every shard discretizes time identically")
	}
	for i, sh := range shards {
		e, ok := sh.Epoch()
		if !ok || !e.Equal(epoch) {
			return nil, fmt.Errorf("shard: shard %d epoch %v (set=%t) differs from shard 0 epoch %v", i, e, ok, epoch)
		}
		if sh.TimeUnit() != shards[0].TimeUnit() {
			return nil, fmt.Errorf("shard: shard %d time unit %v differs from shard 0's %v", i, sh.TimeUnit(), shards[0].TimeUnit())
		}
		if sh.NumVenues() != shards[0].NumVenues() || sh.Levels() != shards[0].Levels() {
			return nil, fmt.Errorf("shard: shard %d hierarchy (%d venues, %d levels) differs from shard 0 (%d venues, %d levels)",
				i, sh.NumVenues(), sh.Levels(), shards[0].NumVenues(), shards[0].Levels())
		}
		if sh.NumEntities() != 0 {
			return nil, fmt.Errorf("shard: shard %d is pre-populated with %d entities; route all ingest through the Cluster", i, sh.NumEntities())
		}
	}
	c := &Cluster{shards: shards, ord: map[string]int{}, tracer: obs.New(cfg.TraceSize)}
	c.slots.Store(DefaultSlotMap(len(shards)))
	if cfg.InitialSlots != nil {
		if err := c.AssignSlots(cfg.InitialSlots); err != nil {
			return nil, err
		}
	}
	if cfg.CacheSize > 0 {
		c.cache = qcache.New[[]digitaltraces.Match](cfg.CacheSize)
	}
	return c, nil
}

// Partition splits a populated single DB into a cluster by replaying its
// full visit log (DB.AllVisits) through the router. Replay preserves the
// source DB's entity ingest order, so the cluster's degree-tie-breaking —
// and therefore every top-k answer — matches the source bit-for-bit.
// cfg.NewShard must build shards compatible with src (same hierarchy, epoch
// and unit; digitaltraces.NewGridDB with src's grid parameters for synthetic
// cities and tracegen record files).
func Partition(src *digitaltraces.DB, cfg Config) (_ *Cluster, err error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	// The shards must discretize src's visits to the same ST-cells, or the
	// replay silently changes every degree; fail loudly instead.
	s0 := c.shards[0]
	if e, ok := src.Epoch(); ok {
		if se, _ := s0.Epoch(); !se.Equal(e) {
			return nil, fmt.Errorf("shard: shard epoch %v differs from source epoch %v — NewShard must reproduce the source DB's epoch", se, e)
		}
	}
	if src.TimeUnit() != s0.TimeUnit() {
		return nil, fmt.Errorf("shard: shard time unit %v differs from source's %v", s0.TimeUnit(), src.TimeUnit())
	}
	if src.NumVenues() != s0.NumVenues() || src.Levels() != s0.Levels() {
		return nil, fmt.Errorf("shard: shard hierarchy (%d venues, %d levels) differs from source (%d venues, %d levels)",
			s0.NumVenues(), s0.Levels(), src.NumVenues(), src.Levels())
	}
	if _, err := c.AddVisits(src.AllVisits()); err != nil {
		return nil, fmt.Errorf("shard: partitioning source DB: %w", err)
	}
	return c, nil
}

// AddVisit records one visit: AddVisits of one record, whose refusal comes
// back without the record index.
func (c *Cluster) AddVisit(entity, venue string, start, end time.Time) error {
	n, err := c.AddVisits([]digitaltraces.VisitRecord{{Entity: entity, Venue: venue, Start: start, End: end}})
	if n == 0 {
		err = errors.Unwrap(err)
	}
	return err
}

// AddVisits bulk-ingests visits: records are grouped by owning shard
// (preserving arrival order within each group) and the groups are forwarded
// in parallel, one ingest-lock acquisition per shard. It returns the total
// number of visits stored, each indexed by its shard (once built) when the
// call returns.
//
// Partial-failure semantics are per shard: each shard keeps the prefix of
// its group before its first failing record (exactly DB.AddVisits), so —
// unlike a single DB — records routed to other shards after the failing
// one are still stored. The returned error names the failing record's index
// in the original slice (the smallest, if several shards failed). Without a
// refused record, an error is the failed folds of shards that stored their
// whole group, as from DB.AddVisits. Entity ordinals are reserved at arrival
// even for records that then fail validation; this only matters for
// degree-tie order and only if the same new entities are later replayed to a
// single DB in a different order.
func (c *Cluster) AddVisits(visits []digitaltraces.VisitRecord) (int, error) {
	n := len(c.shards)
	// Fence every slot this batch touches (read side, ascending slot order
	// so concurrent batches and MigrateSlot's single write lock can't
	// deadlock), then resolve the routing map: the whole batch routes under
	// one map version, and no slot in it can migrate mid-dispatch.
	var inBatch [NumSlots]bool
	for _, v := range visits {
		inBatch[SlotOf(v.Entity)] = true
	}
	for s := range inBatch {
		if inBatch[s] {
			c.slotMu[s].RLock()
			defer c.slotMu[s].RUnlock()
		}
	}
	sm := c.slotmap()
	groups := make([][]digitaltraces.VisitRecord, n)
	origIdx := make([][]int, n)
	names := make([]string, len(visits))
	for i, v := range visits {
		s := sm.Owner(v.Entity)
		groups[s] = append(groups[s], v)
		origIdx[s] = append(origIdx[s], i)
		names[i] = v.Entity
	}
	c.register(names)
	counts := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := range c.shards {
		if len(groups[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			counts[s], errs[s] = c.shards[s].AddVisits(groups[s])
		}(s)
	}
	wg.Wait()
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	failIdx := -1
	var (
		failErr  error
		foldErrs []error
	)
	for s, err := range errs {
		if err == nil {
			continue
		}
		if counts[s] == len(groups[s]) { // every record stored: the fold failed
			foldErrs = append(foldErrs, fmt.Errorf("shard %d: %w", s, err))
			continue
		}
		oi := origIdx[s][counts[s]] // the shard stored counts[s] records, so its group's counts[s]-th failed
		if failIdx == -1 || oi < failIdx {
			failIdx, failErr = oi, err
		}
	}
	if failErr != nil {
		if inner := errors.Unwrap(failErr); inner != nil {
			failErr = inner // strip the shard-local "visit %d" wrapper
		}
		return total, fmt.Errorf("visit %d: %w", failIdx, failErr)
	}
	return total, errors.Join(foldErrs...)
}

// TopK returns the k entities most closely associated with the named entity,
// with exact degrees. The entity's home shard is asked first: it resolves the
// entity's visits and returns them with its own first k+1 matches at floor 0.
// Every other shard is then asked once, in parallel, to rank its entities
// against those visits — one snapshot of the query entity, so the answer never
// mixes two states of it even when a writer races the query — with the home's
// k-th degree as the floor, below which nothing can reach the answer. Each
// reply is complete (gather.go), so the merged answer is bit-identical to a
// single DB's (TestClusterExactness). Stats aggregate across shards: Checked
// sums the exact degree computations performed and PE/Pruned are recomputed
// over the cluster-wide population, so they are comparable with single-DB
// numbers.
//
// With Config.CacheSize set, repeat queries against an unchanged cluster
// (same shard snapshot generations) are answered from the cluster cache with
// no fan-out at all, QueryStats.CacheHit set.
func (c *Cluster) TopK(entity string, k int) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	return c.topKTraced(entity, k, 0)
}

// topKTraced is TopK with trace linkage: batchID groups the item traces of
// one TopKBatch call (0 outside a batch).
func (c *Cluster) topKTraced(entity string, k int, batchID uint64) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	return c.query(obs.KindTopK, entity, k, batchID, qcache.EntityKey(entity, k), func(f *fanout) error {
		if entity == "" {
			return fmt.Errorf("shard: empty entity name") // a rank request without one is by example
		}
		if err := f.call(f.home, RankRequest{Entity: entity, Want: k + 1}); err != nil {
			return err
		}
		// The home's k-th match is a floor the other shards can be asked at:
		// the answer's k-th can only be higher.
		home, floor := f.replies[f.home], 0.0
		if len(home.Matches) >= k {
			floor = home.Matches[k-1].Degree
		}
		return f.callRest(RankRequest{Visits: home.Visits, Want: k + 1, Floor: floor})
	})
}

// TopKByExample answers for a hypothetical entity described by visits,
// asking every shard once at floor 0, with no self to exclude.
func (c *Cluster) TopKByExample(visits []digitaltraces.Visit, k int) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	return c.query(obs.KindExample, "", k, 0, exampleCacheKey(visits, k), func(f *fanout) error {
		return f.callRest(RankRequest{Visits: visits, Want: k + 1})
	})
}

// query answers one top-k query (entity is the one to exclude, "" for an
// example) and records its trace. It runs through the cluster cache
// (qcache.Do under cacheVersion), and a miss asks the shards through ask
// under one pinned slot map: home resolution, every shard's ownership mask
// and ties flag all read that map, so a migration publishing mid-query can
// never split the query's view of who owns what (slotmap.go's exactness
// argument).
func (c *Cluster) query(kind obs.Kind, entity string, k int, batchID uint64, key string, ask func(*fanout) error) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
	start := time.Now()
	if k < 1 {
		err := fmt.Errorf("shard: k = %d < 1", k)
		c.record(kind, entity, k, batchID, nil, digitaltraces.QueryStats{}, nil, nil, err, start)
		return nil, digitaltraces.QueryStats{}, err
	}
	var (
		qs   digitaltraces.QueryStats
		rows []obs.ShardTrace
		gens []uint64
	)
	out, hit, err := qcache.Do(c.cache, key, func() (v string, ok bool) {
		v, gens, ok = c.cacheVersion()
		return v, ok
	}, func() ([]digitaltraces.Match, error) {
		sm, home := c.slotmap(), -1
		if kind == obs.KindTopK {
			home = sm.Owner(entity)
		}
		f := c.newFanout(sm, home)
		if len(f.rows) == 0 {
			return nil, fmt.Errorf("shard: cluster has no visits to index")
		}
		if err := ask(f); err != nil {
			return nil, err
		}
		rows = f.rows
		out, s, err := c.gather(f, k, entity, start)
		qs = s
		return out, err
	})
	switch {
	case hit:
		qs = digitaltraces.QueryStats{CacheHit: true, Elapsed: time.Since(start)}
	case err != nil:
		rows, gens = nil, nil
	}
	c.record(kind, entity, k, batchID, out, qs, rows, gens, err, start)
	return out, qs, err
}

// TopKBatch answers top-k for every named entity on digitaltraces.RunBatch,
// the runner DB.TopKBatch uses: each item is TopK's query — cache, then
// scatter-gather — traced under the batch's ID, and the aggregate's Pruned
// is over the cluster population.
func (c *Cluster) TopKBatch(entities []string, k, workers int) (map[string][]digitaltraces.Match, digitaltraces.QueryStats, error) {
	return digitaltraces.RunBatch(entities, workers, c.tracer, c.NumEntities, func(entity string, batchID uint64) ([]digitaltraces.Match, digitaltraces.QueryStats, error) {
		return c.topKTraced(entity, k, batchID)
	})
}

// NumShards returns the number of partitions.
func (c *Cluster) NumShards() int { return len(c.shards) }

// NumEntities returns the cluster-wide entity count: the size of the global
// arrival registry. Summing per-shard counts would double-count after a
// migration — the source shard keeps its stale copies forever — while every
// entity registers exactly once however its slot moves.
func (c *Cluster) NumEntities() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ord)
}

// NumVenues returns the number of venues. NewCluster verified the value is
// identical on every shard, so any member answers for the cluster — the
// first one, local or remote, is asked through the Backend seam rather than
// assuming an in-process shard 0. A zero-value Cluster reports 0.
func (c *Cluster) NumVenues() int {
	if len(c.shards) == 0 {
		return 0
	}
	return c.shards[0].NumVenues()
}

// Levels returns the hierarchy height (identical on every shard, like
// NumVenues). A zero-value Cluster reports 0.
func (c *Cluster) Levels() int {
	if len(c.shards) == 0 {
		return 0
	}
	return c.shards[0].Levels()
}

// TimeUnit returns the base temporal unit visits are discretized into
// (identical on every shard, which NewCluster verified). A zero-value Cluster
// reports 0.
func (c *Cluster) TimeUnit() time.Duration {
	if len(c.shards) == 0 {
		return 0
	}
	return c.shards[0].TimeUnit()
}

// IndexStats returns cluster totals: sums of every shard's index shape and
// snapshot generation (total swaps cluster-wide), except BuildTime and
// LastRefreshDuration — the slowest shard's, the parallel critical path a
// machine with ≥ NumShards cores sees — and LastSwap, the latest shard swap
// (when the cluster's serving state last changed anywhere). The cache counters are the cluster-level cache's
// own: shards' caches never serve a cluster query.
func (c *Cluster) IndexStats() digitaltraces.IndexStats {
	agg := digitaltraces.IndexStats{Latencies: c.tracer.Summaries()}
	if c.cache != nil {
		cs := c.cache.Stats()
		agg.CacheHits = cs.Hits
		agg.CacheMisses = cs.Misses
		agg.CacheRevalidated = cs.Revalidated
		agg.CacheInvalidated = cs.Invalidated
		agg.CacheEvictions = cs.Evictions
		agg.CacheEntries = cs.Entries
	}
	for _, sh := range c.shards {
		s := sh.IndexStats()
		agg.Entities += s.Entities
		agg.MemoryBytes += s.MemoryBytes
		agg.Generation += s.Generation
		if s.Mapped {
			agg.Mapped = true
		}
		agg.Decoded += s.Decoded
		if s.BuildTime > agg.BuildTime {
			agg.BuildTime = s.BuildTime
		}
		if s.LastRefreshDuration > agg.LastRefreshDuration {
			agg.LastRefreshDuration = s.LastRefreshDuration
		}
		if s.LastSwap.After(agg.LastSwap) {
			agg.LastSwap = s.LastSwap
		}
	}
	return agg
}

// Close closes every shard, then unmaps any cluster envelope opened by
// OpenIndex — after the shards, since their snapshots read through it. Idempotent, like DB.Close; a mapped cluster must not be
// queried after Close.
func (c *Cluster) Close() error {
	var errs []error
	for i, sh := range c.shards {
		if err := sh.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	c.mu.Lock()
	maps := c.mappings
	c.mappings = nil
	c.mu.Unlock()
	for _, m := range maps {
		m.Close()
	}
	return errors.Join(errs...)
}

// ShardStat describes one shard, for partition-skew monitoring: how many
// entities the shard physically holds (stale migrated-away copies included),
// how many it currently owns under the slot map, how many slots route to it,
// and the shape of its built index.
type ShardStat struct {
	Shard    int                      // shard ordinal
	Entities int                      // entities physically on this shard (incl. stale copies)
	Owned    int                      // entities the current slot map assigns here
	Slots    int                      // slots the current slot map assigns here
	Index    digitaltraces.IndexStats // built-index shape (zero before build)
}

// ShardStats returns per-shard statistics, in shard order. The server's
// /stats endpoint exposes these so operators can spot partition skew; the
// Rebalance planner reads the same Owned counts to repair it.
func (c *Cluster) ShardStats() []ShardStat {
	slots := c.slotsOwned()
	loads := c.SlotLoads()
	sm := c.slotmap()
	owned := make([]int, len(c.shards))
	for s, cnt := range loads {
		owned[sm.assign[s]] += cnt
	}
	out := make([]ShardStat, len(c.shards))
	for i, sh := range c.shards {
		out[i] = ShardStat{Shard: i, Entities: sh.NumEntities(), Owned: owned[i], Slots: slots[i], Index: sh.IndexStats()}
	}
	return out
}
