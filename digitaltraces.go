// Package digitaltraces answers top-k association queries over digital
// traces — "which k entities are most closely associated with this one,
// given where and when they have been?" — implementing the system of
// "Top-k Queries over Digital Traces" (Li, SIGMOD 2019 / York University
// thesis 2018): hierarchical MinHash signatures, the MinSigTree index, and
// exact top-k search with early termination.
//
// # Model
//
// Entities (people, devices, MAC addresses) produce visits: presence at a
// location during a time span. Locations live in a spatial hierarchy (city →
// district → street → venue). Two entities are associated to the degree
// their visits overlap — longer co-presence at finer locations scores
// higher. The association degree measure is pluggable (see WithMeasure*
// options); results are always exact regardless of the measure chosen, only
// pruning effectiveness varies.
//
// # Quick start
//
//	h := digitaltraces.NewHierarchy(3)
//	h.AddPath("downtown", "king-street", "cafe-a")
//	h.AddPath("downtown", "king-street", "cafe-b")
//	db, _ := digitaltraces.NewDB(h)
//	db.AddVisit("alice", "cafe-a", t0, t0.Add(2*time.Hour))
//	db.AddVisit("bob", "cafe-a", t0.Add(time.Hour), t0.Add(3*time.Hour))
//	matches, _, _ := db.TopK("alice", 5)
//
// # Concurrency
//
// A DB is safe for concurrent use, and reads wait for index maintenance
// only to see a write acknowledged before they began. Queries (TopK, TopKByExample, TopKApprox, TopKBatch, KNNJoin,
// Degree) answer against an immutable index snapshot loaded through one
// atomic pointer read, so any number run in parallel — with each other and
// with BuildIndex/Refresh, which construct the next snapshot off to the side
// and atomically swap it in. Refresh is copy-on-write: the next snapshot
// shares every clean entity's state with the previous one and copies only
// the dirty entities' signature paths, so a fold-and-swap costs O(dirty),
// independent of database size. Ingest (AddVisit, AddVisits) touches only a
// small mutex-guarded visit log. A query always reads every write
// acknowledged before it began: against a stale index (visits added since
// the last swap) it waits for the build in flight or folds the dirt itself
// first — and WithAutoRefresh folds dirt proactively from a background
// goroutine (stop it with Close), so queries virtually never find a stale
// index at all.
//
// # Scaling out
//
// The Engine interface abstracts the serving surface of a DB. Package shard
// composes N DBs into an entity-partitioned cluster with parallel index
// builds and exact scatter-gather top-k; package server exposes any Engine
// over HTTP/JSON and cmd/serve runs it as a network service (-shards N).
//
// # Persistence
//
// SaveIndex persists the serving index (signature digests, entity names and
// the engine scalars — not the visit data) and LoadIndex republishes it over
// a re-ingested visit log, so a restarted process serves queries without
// rebuilding: the warm-restart path (cmd/serve -index-save / -index-load).
// Entities resolve by name, and a log that drifted from the snapshot's data
// is a load-time error, never a silently different answer.
//
// See examples/ for complete programs, README.md for a tour, DESIGN.md for
// the architecture and the concurrency model, and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package digitaltraces

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digitaltraces/internal/core"
	"digitaltraces/internal/mmap"
	"digitaltraces/internal/obs"
	"digitaltraces/internal/qcache"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Hierarchy declares the spatial hierarchy (the paper's sp-index) by named
// paths from the top level down to concrete venues. All paths must have
// exactly the declared number of levels.
type Hierarchy struct {
	levels int
	root   *hnode
	leaves map[string]*hnode
	err    error
}

type hnode struct {
	name     string
	children map[string]*hnode
	order    []*hnode
}

// NewHierarchy creates a hierarchy with the given number of levels (≥ 1).
// Typical city data uses 3-5 levels; the paper's default is 4.
func NewHierarchy(levels int) *Hierarchy {
	h := &Hierarchy{
		levels: levels,
		root:   &hnode{children: map[string]*hnode{}},
		leaves: map[string]*hnode{},
	}
	if levels < 1 {
		h.err = fmt.Errorf("digitaltraces: hierarchy needs at least 1 level")
	}
	return h
}

// AddPath declares one root-to-venue path, e.g.
// AddPath("downtown", "king-street", "cafe-a") in a 3-level hierarchy.
// The final name is the venue visits refer to; venue names must be unique.
// Intermediate units are shared across paths by name.
func (h *Hierarchy) AddPath(names ...string) *Hierarchy {
	if h.err != nil {
		return h
	}
	if len(names) != h.levels {
		h.err = fmt.Errorf("digitaltraces: path %v has %d levels, hierarchy has %d", names, len(names), h.levels)
		return h
	}
	cur := h.root
	for i, name := range names {
		if name == "" {
			h.err = fmt.Errorf("digitaltraces: empty unit name in path %v", names)
			return h
		}
		child, ok := cur.children[name]
		if !ok {
			child = &hnode{name: name, children: map[string]*hnode{}}
			cur.children[name] = child
			cur.order = append(cur.order, child)
		}
		cur = child
		if i == len(names)-1 {
			if prev, dup := h.leaves[name]; dup && prev != cur {
				h.err = fmt.Errorf("digitaltraces: venue %q declared under two different parents", name)
				return h
			}
			h.leaves[name] = cur
		}
	}
	return h
}

// build materializes the sp-index and the venue-name → base-ID map.
func (h *Hierarchy) build() (*spindex.Index, map[string]spindex.BaseID, error) {
	if h.err != nil {
		return nil, nil, h.err
	}
	if len(h.leaves) == 0 {
		return nil, nil, fmt.Errorf("digitaltraces: hierarchy has no venues (call AddPath)")
	}
	b := spindex.NewBuilder(h.levels)
	names := map[spindex.UnitID]string{}
	var walk func(n *hnode, parent spindex.UnitID, level int)
	walk = func(n *hnode, parent spindex.UnitID, level int) {
		var id spindex.UnitID
		if level == 1 {
			id = b.AddRoot()
		} else {
			id = b.AddChild(parent)
		}
		names[id] = n.name
		for _, c := range n.order {
			walk(c, id, level+1)
		}
	}
	for _, c := range h.root.order {
		walk(c, spindex.NoUnit, 1)
	}
	ix, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	venues := make(map[string]spindex.BaseID, len(h.leaves))
	for u := 0; u < ix.NumUnits(); u++ {
		id := spindex.UnitID(u)
		if ix.Level(id) == ix.Height() {
			venues[names[id]] = ix.BaseOf(id)
		}
	}
	return ix, venues, nil
}

// Match is one top-k answer.
type Match struct {
	Entity string
	Degree float64 // exact association degree in [0, 1]
}

// QueryStats reports how much work a query performed. PE is Definition 5 of
// the paper: the fraction of extra entities whose exact degree had to be
// computed (lower is better); Pruned is the complementary fraction.
// ZeroSkipped and BoundSkipped count the entities a posting-driven search
// settled without a degree computation — under none of the query's level-1
// cells, so provably 0, or unable to displace the k-th answer even at their
// bound; with Checked they sum to the indexed entities other than the query.
// Both are 0 where Algorithm 2 ran instead (a mapped index). Shard streams
// report Checked only.
type QueryStats struct {
	Checked      int
	ZeroSkipped  int
	BoundSkipped int
	PE           float64
	Pruned       float64
	Elapsed      time.Duration
	// CacheHit reports that the answer was served from the generation-keyed
	// query cache (WithQueryCache / shard.Config.CacheSize) without running a
	// search: Checked is then 0 and PE/Pruned describe no work at all.
	CacheHit bool
	// Shards counts the shards a scatter-gather touched (0 on a single DB —
	// no fan-out) and Pulled the candidates they surrendered to the
	// coordinator before the threshold cut; Pulled close to Shards×(k+1)
	// means the cut never fired. Merge is the coordinator's k-way merge
	// time, separated from the per-shard cost inside Elapsed.
	Shards int
	Pulled int
	Merge  time.Duration
}

// Option customizes a DB.
type Option func(*DB) error

// WithHashFunctions sets nh, the signature width (default 256). More
// functions prune better at higher indexing cost (the Figure 7.3 / 7.8
// trade-off).
func WithHashFunctions(n int) Option {
	return func(db *DB) error {
		if n < 1 {
			return fmt.Errorf("digitaltraces: hash functions %d < 1", n)
		}
		db.nh = n
		return nil
	}
}

// WithTimeUnit sets the base temporal unit (default time.Hour).
func WithTimeUnit(d time.Duration) Option {
	return func(db *DB) error {
		if d <= 0 {
			return fmt.Errorf("digitaltraces: non-positive time unit")
		}
		db.unit = d
		return nil
	}
}

// WithEpoch sets the start of the observation horizon (default: the zero
// time is inferred from the first visit).
func WithEpoch(t time.Time) Option {
	return func(db *DB) error {
		db.epoch = t
		db.epochSet = true
		db.epochExplicit = true
		return nil
	}
}

// WithPaperMeasure selects the paper's association degree measure (Eq 7.1)
// with level exponent u and duration exponent v (defaults u = v = 2).
func WithPaperMeasure(u, v float64) Option {
	return func(db *DB) error {
		db.measureU, db.measureV = u, v
		db.jaccard = false
		return nil
	}
}

// WithJaccardMeasure selects a uniformly weighted per-level Jaccard measure
// instead of the paper's Eq 7.1.
func WithJaccardMeasure() Option {
	return func(db *DB) error {
		db.jaccard = true
		return nil
	}
}

// WithSeed fixes the hash-family seed (default 1). Two DBs with the same
// seed, data and options behave identically.
func WithSeed(seed uint64) Option {
	return func(db *DB) error {
		db.seed = seed
		return nil
	}
}

// DB is a digital-trace database: a store of entity visits plus, after
// BuildIndex, a MinSigTree serving exact top-k association queries.
//
// A DB is safe for concurrent use by multiple goroutines, and its two halves
// have independent synchronization. The ingest side (the entity registry,
// the raw visit log and the dirty set) lives under a small read-write lock
// whose critical sections are O(visits added). The index side is an
// immutable snapshot — store, tree, measure, horizon, name table — published
// through an atomic pointer: queries load it once and search lock-free
// (core.Tree.TopK is documented read-only), while BuildIndex and Refresh
// construct the next snapshot aside and atomically swap it in, so a
// multi-second rebuild never blocks a read that the published snapshot
// serves. A query is served only by a snapshot covering every write
// acknowledged before it began; if the published one does not, the query
// waits for the build in flight and re-checks, or folds the dirt itself.
// Every query answers exactly over the one frozen snapshot it pinned.
type DB struct {
	// Immutable after construction.
	ix        *spindex.Index
	venues    map[string]spindex.BaseID
	baseNames []string // venue name by BaseID, the inverse of venues

	unit     time.Duration
	nh       int
	seed     uint64
	measureU float64
	measureV float64
	jaccard  bool

	// mu guards the small ingest side: the entity name registry, the raw
	// visit log, the dirty set, the write sequence and the (write-once)
	// epoch. Nothing under mu is ever held across an index build or a search.
	mu     sync.RWMutex
	names  map[string]trace.EntityID
	byID   []string
	visits map[trace.EntityID][]trace.Record
	dirty  map[trace.EntityID]bool
	// writeSeq counts ingested visits, from 1: a built snapshot records the
	// count its view captured and covers every visit up to it, while a
	// loaded one records 0 and so covers by the dirt check alone
	// (snapshotForQuery).
	writeSeq      uint64
	epoch         time.Time
	epochSet      bool
	epochExplicit bool // epoch came from WithEpoch, not from data

	// snap is the serving index: an immutable snapshot published by atomic
	// pointer swap. Queries load it once and search lock-free; builders
	// construct the next snapshot aside and publish it (snapshot.go).
	snap atomic.Pointer[snapshot]
	// buildMu serializes snapshot publishers (BuildIndex, Refresh, loads and
	// the query path's lazy escalation). A query waits on it only when the
	// published snapshot misses a write acknowledged before the query began.
	buildMu sync.Mutex

	// unionFold marks a DB whose serving snapshots may cover visits the
	// ingest log does not retain (mapped loads, bulk loads without visit
	// retention): builders must union new visits into the previously folded
	// sequences instead of rebuilding them from the log, which is exact
	// because cell sets union idempotently. Guarded by buildMu (set by
	// LoadMappedIndex / BulkLoadRecordFile, read by builders); never cleared.
	unionFold bool

	// mappings are the file mappings live snapshots may serve sequences
	// from. A replaced mapping is never unmapped mid-flight — queries pinned
	// to an old snapshot may still fault its pages — so they accumulate here
	// (guarded by mu) until Close unmaps them all.
	mappings []*mmap.Mapping

	// cache is the generation-keyed hot-query cache (nil without
	// WithQueryCache). Keyed by the serving snapshot's generation, so a
	// publish invalidates every entry without any cache writes (cache.go).
	cache *qcache.Cache[[]Match]

	// tracer is the per-query trace ring (nil without WithTracing — the
	// disabled state every obs method no-ops on; tracing.go).
	tracer *obs.Tracer

	// Background auto-refresh policy (autorefresh.go). Zero thresholds mean
	// disabled; the goroutine channels are nil then and Close is a no-op.
	autoMaxDirty int
	autoMaxStale time.Duration
	autoStop     chan struct{}
	autoDone     chan struct{}
	closeOnce    sync.Once
}

// NewDB creates a database over the given hierarchy.
func NewDB(h *Hierarchy, opts ...Option) (*DB, error) {
	ix, venues, err := h.build()
	if err != nil {
		return nil, err
	}
	return newDB(ix, venues, opts...)
}

func newDB(ix *spindex.Index, venues map[string]spindex.BaseID, opts ...Option) (*DB, error) {
	baseNames := make([]string, ix.NumBase())
	for name, b := range venues {
		baseNames[b] = name
	}
	db := &DB{
		ix:        ix,
		venues:    venues,
		baseNames: baseNames,
		unit:      time.Hour,
		nh:        256,
		seed:      1,
		measureU:  2,
		measureV:  2,
		names:     map[string]trace.EntityID{},
		visits:    map[trace.EntityID][]trace.Record{},
		dirty:     map[trace.EntityID]bool{},
		writeSeq:  1,
	}
	for _, opt := range opts {
		if err := opt(db); err != nil {
			return nil, err
		}
	}
	db.startAutoRefresh()
	return db, nil
}

// Levels returns the number of hierarchy levels.
func (db *DB) Levels() int { return db.ix.Height() }

// NumEntities returns the number of known entities.
func (db *DB) NumEntities() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.names)
}

// NumVenues returns the number of venues (base spatial units).
func (db *DB) NumVenues() int { return db.ix.NumBase() }

// Entities returns all known entity names, sorted.
func (db *DB) Entities() []string {
	db.mu.RLock()
	out := append([]string(nil), db.byID...)
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// AddVisit records that entity was present at venue during [start, end).
// Visits may arrive in any order and may overlap. After BuildIndex, new
// visits mark the entity dirty; call Refresh (or BuildIndex again) to fold
// them in.
func (db *DB) AddVisit(entity, venue string, start, end time.Time) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.addVisitLocked(entity, venue, start, end)
}

// VisitRecord is one entity's presence, for bulk ingest.
type VisitRecord struct {
	Entity string
	Venue  string
	Start  time.Time
	End    time.Time
}

// AddVisits records many visits under a single ingest-lock acquisition —
// the bulk-ingest path (one AddVisit per record would pay a lock round-trip
// per visit). It returns the number of visits stored; on error, visits
// before the failing one are kept.
func (db *DB) AddVisits(visits []VisitRecord) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, v := range visits {
		if err := db.addVisitLocked(v.Entity, v.Venue, v.Start, v.End); err != nil {
			return i, fmt.Errorf("visit %d: %w", i, err)
		}
	}
	return len(visits), nil
}

func (db *DB) addVisitLocked(entity, venue string, start, end time.Time) error {
	base, ok := db.venues[venue]
	if !ok {
		return fmt.Errorf("digitaltraces: unknown venue %q", venue)
	}
	if !end.After(start) {
		return fmt.Errorf("digitaltraces: empty visit span %v..%v", start, end)
	}
	if !db.epochSet {
		db.epoch = start.Truncate(db.unit)
		db.epochSet = true
	}
	su := int64(start.Sub(db.epoch) / db.unit)
	eu := int64((end.Sub(db.epoch) + db.unit - 1) / db.unit)
	if su < 0 {
		return fmt.Errorf("digitaltraces: visit at %v precedes the epoch %v (set WithEpoch)", start, db.epoch)
	}
	if eu <= su {
		eu = su + 1
	}
	e, ok := db.names[entity]
	if !ok {
		e = trace.EntityID(len(db.byID))
		db.names[entity] = e
		db.byID = append(db.byID, entity)
	}
	db.visits[e] = append(db.visits[e], trace.Record{Entity: e, Base: base, Start: trace.Time(su), End: trace.Time(eu)})
	db.dirty[e] = true
	db.writeSeq++
	return nil
}

// BuildIndex (re)builds the MinSigTree over all current visits. Cost is
// O(|E|·C·nh) signature hashing plus tree insertion (Section 4.3), but the
// work happens entirely off to the side: the build captures a frozen visit
// view, constructs the next snapshot, and atomically swaps it in — in-flight
// and newly arriving queries keep answering from the previous snapshot
// instead of stalling behind the rebuild.
func (db *DB) BuildIndex() error {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	_, err := db.buildSnapshot()
	return err
}

// ErrBeyondHorizon reports that Refresh cannot fold in a visit whose span
// extends past the indexed time horizon: the hash family is parameterized by
// the horizon, so only BuildIndex (which re-hashes everything over the new
// horizon) can absorb it. Queries hitting this state transparently rebuild;
// an explicit Refresh surfaces it so batch ingest loops can decide when to
// pay for the rebuild.
var ErrBeyondHorizon = errors.New("digitaltraces: visit beyond indexed horizon; call BuildIndex")

// Refresh folds dirty entities (those with visits added since the last
// BuildIndex/Refresh) into the index incrementally (Section 4.2.3) — like
// BuildIndex, built aside on a copy of the serving snapshot and atomically
// swapped, never blocking queries. New visits with timestamps beyond the
// indexed horizon fail with ErrBeyondHorizon and require BuildIndex.
func (db *DB) Refresh() error {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	s := db.snap.Load()
	if s == nil {
		_, err := db.buildSnapshot()
		return err
	}
	_, err := db.refreshSnapshot(s)
	return err
}

// TopK returns the k entities most closely associated with the named entity
// (Definition 4), with exact degrees, plus query statistics. Safe to call
// from any number of goroutines, and blocked by a concurrent
// BuildIndex/Refresh only while it folds a write acknowledged before the
// call; see the DB concurrency contract.
func (db *DB) TopK(entity string, k int) ([]Match, QueryStats, error) {
	return db.query(obs.KindTopK, entity, k, qcache.EntityKey(entity, k), func(s *snapshot) (*trace.Sequences, error) {
		return db.lookup(s, entity)
	})
}

// Visit describes one presence for query-by-example.
type Visit struct {
	Venue string
	Start time.Time
	End   time.Time
}

// TopKByExample answers a query for a hypothetical entity described by the
// given visits (the thesis' query-by-example task) without adding it to the
// database. Example visits discretize exactly like ingested ones (same
// epoch, unit and rounding), so an example built from VisitsOf output
// reproduces that entity's stored ST-cells bit-for-bit — the property the
// shard.Cluster scatter-gather path relies on for exact merged answers.
func (db *DB) TopKByExample(visits []Visit, k int) ([]Match, QueryStats, error) {
	start := time.Now()
	q, err := db.exampleSequences(visits)
	if err != nil {
		db.record(obs.KindExample, "", k, nil, nil, QueryStats{}, err, start)
		return nil, QueryStats{}, err
	}
	return db.query(obs.KindExample, "", k, exampleKey(q, k), func(*snapshot) (*trace.Sequences, error) { return q, nil })
}

// query answers one top-k query and records its trace. It runs through the
// cache (qcache.Do under cacheVersion), and a miss searches the snapshot
// snapshotForQuery pins, for the sequences resolve finds in it.
func (db *DB) query(kind obs.Kind, entity string, k int, key string, resolve func(*snapshot) (*trace.Sequences, error)) ([]Match, QueryStats, error) {
	start := time.Now()
	var (
		seen, pinned *snapshot
		qs           QueryStats
	)
	out, hit, err := qcache.Do(db.cache, key, func() (v string, ok bool) {
		v, seen, ok = db.cacheVersion()
		return v, ok
	}, func() (out []Match, err error) {
		if pinned, err = db.snapshotForQuery(); err != nil {
			return nil, err
		}
		q, err := resolve(pinned)
		if err != nil {
			return nil, err
		}
		out, qs, err = pinned.topK(q, k)
		return out, err
	})
	if hit {
		pinned, qs = seen, QueryStats{CacheHit: true, Elapsed: time.Since(start)}
	}
	db.record(kind, entity, k, pinned, out, qs, err, start)
	return out, qs, err
}

// exampleSequences discretizes example visits into the hypothetical entity's
// ST-cell sequences (entity ID −1), applying exactly the ingest-path rounding
// so an example built from VisitsOf output reproduces the entity's stored
// cells bit-for-bit. The epoch is write-once, so the result is stable once
// it is set; TopKByExample and SearchByExample share this so the one-shot
// and incremental example paths can never discretize differently.
func (db *DB) exampleSequences(visits []Visit) (*trace.Sequences, error) {
	epoch, set, explicit := db.epochInfo()
	if !set {
		// No visit yet (the first one fixes the epoch): converting with the
		// zero epoch would silently produce nonsense unit offsets.
		return nil, fmt.Errorf("digitaltraces: no epoch to anchor example visits (ingest a visit or set WithEpoch)")
	}
	var recs []trace.Record
	for i, v := range visits {
		base, ok := db.venues[v.Venue]
		if !ok {
			return nil, fmt.Errorf("digitaltraces: unknown venue %q", v.Venue)
		}
		if !v.End.After(v.Start) {
			return nil, fmt.Errorf("digitaltraces: example visit %d: empty span %v..%v", i, v.Start, v.End)
		}
		su := int64(v.Start.Sub(epoch) / db.unit)
		eu := int64((v.End.Sub(epoch) + db.unit - 1) / db.unit)
		if su < 0 {
			return nil, fmt.Errorf("digitaltraces: example visit %d at %v precedes the epoch %v — the epoch was %s; set WithEpoch to cover the example's span",
				i, v.Start, epoch, epochOrigin(explicit))
		}
		if eu <= su {
			eu = su + 1 // sub-unit span: same rounding as ingest
		}
		recs = append(recs, trace.Record{Entity: -1, Base: base, Start: trace.Time(su), End: trace.Time(eu)})
	}
	return trace.NewSequences(db.ix, -1, recs), nil
}

// epochInfo reads the write-once epoch fields under the ingest lock. Once a
// snapshot exists the epoch can no longer change (indexing requires visits
// and the first visit fixes it), so values read after snapshotForQuery are
// stable for the rest of the query.
func (db *DB) epochInfo() (epoch time.Time, set, explicit bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch, db.epochSet, db.epochExplicit
}

// epochOrigin names where the epoch came from, for error messages.
func epochOrigin(explicit bool) string {
	if explicit {
		return "fixed at construction (WithEpoch, or the grid convention of the Unix epoch)"
	}
	return "inferred from the first ingested visit"
}

// TopKApprox answers a top-k query approximately (the paper's §8.2 future
// work): the search stops once the k-th found degree is within a factor
// (1−epsilon) of every remaining bound. The returned guarantee is the
// smallest epsilon that actually holds for this answer: the k-th returned
// degree is at least (1−guarantee) times the true k-th degree. epsilon = 0
// reproduces the exact TopK.
func (db *DB) TopKApprox(entity string, k int, epsilon float64) ([]Match, float64, error) {
	s, err := db.snapshotForQuery()
	if err != nil {
		return nil, 0, err
	}
	q, err := db.lookup(s, entity)
	if err != nil {
		return nil, 0, err
	}
	res, stats, err := s.tree.ApproxTopK(q, k, s.measure, core.ApproxOptions{Epsilon: epsilon})
	if err != nil {
		return nil, 0, err
	}
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{Entity: s.byID[r.Entity], Degree: r.Degree}
	}
	return out, stats.AchievedEpsilon, nil
}

// KNNJoin answers top-k for every named entity (the paper's §8.2 future
// work), using a bounded worker pool. The result maps each query entity to
// its matches. It is TopKBatch without the statistics.
func (db *DB) KNNJoin(entities []string, k int, workers int) (map[string][]Match, error) {
	out, _, err := db.TopKBatch(entities, k, workers)
	return out, err
}

// SaveIndex persists the built index to w without the sequence section:
// per-entity signature digests plus each entity's name and covered visit
// count, and the hash-family / time-unit / epoch / measure scalars. The visit
// data itself is not included — LoadIndex republishes the snapshot over a
// re-ingested visit log, resolving entities by name.
//
// Pending dirt is folded (or the index built, if absent) before saving, so
// the snapshot covers everything ingested when the save began; entities that
// receive visits while the save is in flight are stamped with an unknown
// covered count and re-signed on load instead of served stale.
func (db *DB) SaveIndex(w io.Writer) (int64, error) { return db.saveIndex(w, false) }

// SaveMappedIndex persists the built index to w with the sequence section:
// everything SaveIndex writes, folded first the same way, plus every entity's
// serialized sequences, page-aligned, and the level-1 cell index — so
// LoadMappedIndex can serve queries straight off a read-only mapping of the
// file with no visit re-ingest at all, and LoadIndex can still load it by name
// over a re-ingested log.
func (db *DB) SaveMappedIndex(w io.Writer) (int64, error) { return db.saveIndex(w, true) }

// saveIndex is the one save routine: fold first, capture the covered counts,
// write outside every lock — with the sequence section (and the cell index
// that goes with it) or without.
func (db *DB) saveIndex(w io.Writer, withSeqs bool) (int64, error) {
	db.buildMu.Lock()
	if db.unionFold && !withSeqs {
		// The visit log no longer covers the index (mapped or bulk load), so
		// the per-entity covered counts would be wrong — and LoadIndex could
		// not reconstruct the store from the log anyway.
		db.buildMu.Unlock()
		return 0, fmt.Errorf("digitaltraces: SaveIndex on a mapped- or bulk-loaded DB whose visit log does not cover the index; use SaveMappedIndex, which persists the sequences themselves")
	}
	s := db.snap.Load()
	var err error
	switch {
	case s == nil:
		s, err = db.buildSnapshot()
	case db.PendingEntities() > 0:
		var ns *snapshot
		ns, err = db.refreshSnapshot(s)
		if errors.Is(err, ErrBeyondHorizon) {
			ns, err = db.buildSnapshot()
		}
		if err == nil {
			s = ns
		}
	}
	if err != nil {
		db.buildMu.Unlock()
		return 0, err
	}
	// Capture the per-entity covered counts while buildMu still serializes
	// publishers: a clean entity's count is exactly what s folded (publish
	// retires dirt only when the counts match), and an entity dirtied since
	// the fold above gets the stale sentinel. On a union-fold DB with no
	// retained visits this records 0 — a mapped load treats an empty log as
	// clean regardless, and a re-ingested log simply refolds (unions are
	// idempotent).
	ents := s.tree.Entities()
	folded := make([]uint32, len(s.byID))
	db.mu.RLock()
	epoch := db.epoch
	for _, e := range ents {
		if db.dirty[e] {
			folded[e] = core.FoldedUnknown
		} else {
			folded[e] = uint32(len(db.visits[e]))
		}
	}
	db.mu.RUnlock()
	db.buildMu.Unlock()
	meta := core.SnapshotMeta{
		TimeUnit:   db.unit,
		EpochNanos: epoch.UnixNano(),
		MeasureU:   db.measureU,
		MeasureV:   db.measureV,
		Jaccard:    db.jaccard,
	}
	var seqs core.SequenceSource
	if withSeqs {
		seqs = s.store
	}
	// The tree, store and captured tables are immutable from here; write
	// outside every lock.
	return s.tree.WriteSnapshot(w, meta, seqs, func(e trace.EntityID) (string, uint32) {
		return s.byID[e], folded[e]
	})
}

// Degree computes the exact association degree between two entities without
// touching the index. Both entities resolve against one pinned snapshot (the
// shared lookup path), so the degree always compares two states from the
// same consistent index generation.
func (db *DB) Degree(a, b string) (float64, error) {
	s, err := db.snapshotForQuery()
	if err != nil {
		return 0, err
	}
	sa, err := db.lookup(s, a)
	if err != nil {
		return 0, err
	}
	sb, err := db.lookup(s, b)
	if err != nil {
		return 0, err
	}
	return s.measure.Degree(sa, sb), nil
}

// IndexStats describes the serving index snapshot (zero value before the
// first build). BuildTime is the duration of the last full BuildIndex; on an
// aggregated engine (a shard cluster) it is the slowest member's build — the
// parallel critical path, i.e. the wall clock a machine with at least as
// many cores as shards sees.
type IndexStats struct {
	Entities    int
	Nodes       int
	Leaves      int
	MemoryBytes int
	BuildTime   time.Duration
	// Generation counts snapshot swaps: 0 before the first build, 1 after
	// it, +1 for every subsequent BuildIndex/Refresh swap. An aggregated
	// engine sums its members' generations (total swaps cluster-wide).
	Generation uint64
	// LastSwap is when the serving snapshot was published (zero before the
	// first build; on an aggregated engine, the latest member swap).
	LastSwap time.Time
	// DirtyCount is the number of entities with visits the serving snapshot
	// does not cover yet — what the next Refresh will fold, and what the
	// auto-refresh policy's dirty threshold compares against. Reported even
	// before the first build. An aggregated engine sums its members'.
	DirtyCount int
	// LastRefreshDuration is how long the serving snapshot's incremental
	// Refresh took — the cost of the last O(dirty) fold-and-swap. Zero when
	// the snapshot came from a full BuildIndex (or none exists). An
	// aggregated engine reports its slowest member's, mirroring BuildTime.
	LastRefreshDuration time.Duration
	// Query-cache counters (all zero unless the engine was built with
	// WithQueryCache, or shard.Config.CacheSize for a cluster). Hits and
	// misses count lookups; evictions count capacity displacements only —
	// generation bumps invalidate by keying, they never evict. Entries is
	// the current live entry count for the serving generation. An aggregated
	// engine reports its own cluster-level cache's.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheEntries   int
	// Latencies summarizes per-query-kind latency histograms ("topk",
	// "example", "batch", "merge") — nil unless tracing is on (WithTracing /
	// shard.Config.TraceSize) and at least one query was observed. An
	// aggregated engine reports its own coordinator-level tracer's view.
	Latencies map[string]LatencySummary
	// Mapped reports that the serving snapshot reads sequences lazily from a
	// mapped (or disk-backed) snapshot file instead of the heap; PoolHits
	// and PoolMisses are its buffer pool's counters — the hit rate is the
	// fraction of sequence reads served without touching the file. All zero
	// on heap-served snapshots. An aggregated engine ORs Mapped and sums the
	// counters.
	Mapped     bool
	PoolHits   int
	PoolMisses int
}

// IndexStats returns current index statistics — one atomic snapshot load
// plus a shared-lock dirty count, never blocked by rebuilds.
func (db *DB) IndexStats() IndexStats {
	out := IndexStats{DirtyCount: db.PendingEntities(), Latencies: db.tracer.Summaries()}
	if db.cache != nil {
		cs := db.cache.Stats()
		out.CacheHits = cs.Hits
		out.CacheMisses = cs.Misses
		out.CacheEvictions = cs.Evictions
		out.CacheEntries = cs.Entries
	}
	s := db.snap.Load()
	if s == nil {
		return out
	}
	st := s.tree.Stats()
	out.Entities = st.Entities
	out.Nodes = st.Nodes
	out.Leaves = st.Leaves
	out.MemoryBytes = st.MemoryBytes
	out.BuildTime = s.buildTime
	out.Generation = s.generation
	out.LastSwap = s.swappedAt
	out.LastRefreshDuration = s.refreshTime
	if s.pool != nil {
		ps := s.pool.Stats()
		out.Mapped = true
		out.PoolHits = ps.Hits
		out.PoolMisses = ps.Misses
	}
	return out
}
