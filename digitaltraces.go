// Package digitaltraces answers top-k association queries over digital
// traces — "which k entities are most closely associated with this one,
// given where and when they have been?" — implementing the system of
// "Top-k Queries over Digital Traces" (Li, SIGMOD 2019 / York University
// thesis 2018): exact top-k search with early termination under the paper's
// Theorem-4 bounds, served from an inverted index of level-1 ST-cells. The
// paper's MinSigTree is reproduced in internal/core and cmd/experiments.
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
// A DB is safe for concurrent use, and queries never wait for index
// maintenance. Queries (TopK, TopKByExample, Rank, Degree) answer
// against an immutable index snapshot loaded through one atomic pointer
// read, so any number run in parallel — with each other and with the
// builders, which construct the next snapshot off to the side and
// atomically swap it in. TopKBatch — the paper's §8.2 kNN join, top-k for
// many entities at once — is TopK per entity on a worker pool, each item
// pinning its own snapshot. Writes are indexed when acknowledged: once an index
// exists, AddVisit and AddVisits fold their visits into the next snapshot and
// publish it before returning (Section 4.2.3's incremental maintenance), so a
// query always reads every write acknowledged before it began. A fold is
// copy-on-write: the next snapshot shares every clean entity's state with the
// previous one and adds only the written entities' postings, so it costs
// O(dirty), independent of database size, and concurrent writers share one
// fold when it captures all of their visits.
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
// SaveIndex persists the serving index as one image, sequences included, and
// OpenIndex serves such an image straight off a read-only mapping, so a
// restarted process answers queries with no visit re-ingest and no rebuild
// (cmd/serve -index). The image's scalars must match the DB's configuration,
// and its entities must keep the IDs the registry gave them, while those it
// does not know take the next ones — either mismatch is an open-time error,
// never a silently different answer.
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
	"digitaltraces/internal/storage"
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
// Every DB search fills them, an opened image's included (it is served by the
// same posting-driven search); a cluster's shards report Checked only.
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
	// Shards counts the shards a cluster query asked (0 on a single DB — no
	// fan-out) and Pulled the matches they returned to the coordinator;
	// Pulled close to Shards×(k+1) means no floor cut a shard short. Merge
	// is the coordinator's merge time, separated from the per-shard cost
	// inside Elapsed.
	Shards int
	Pulled int
	Merge  time.Duration
}

// Option customizes a DB.
type Option func(*DB) error

// WithHashFunctions does nothing: the index carries no signatures, so there
// is no hash family to size.
//
// Deprecated: the served index hashes nothing; drop the option. The
// MinSigTree's signature width is an experiment parameter (cmd/experiments).
func WithHashFunctions(int) Option { return func(*DB) error { return nil } }

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

// DB is a digital-trace database: each entity's ST-cell sequences — the
// data every query, fold and save reads — plus, after BuildIndex, the
// postings serving exact top-k association queries over them.
//
// A DB is safe for concurrent use by multiple goroutines, and its two halves
// have independent synchronization. The ingest side (the entity registry and
// the pending visits — those not yet folded into the sequences) lives under a
// small read-write lock whose critical sections are O(visits added). The
// index side is an immutable snapshot — store, postings, measure, name table
// — published through an atomic pointer: queries load it once and search
// lock-free (core.Postings searches are read-only), while BuildIndex and each
// acknowledged write fold the pending visits into the next snapshot aside and
// atomically swap it in, dropping the visits it folded, so a multi-second
// rebuild never blocks a read. The published snapshot covers every write
// acknowledged so far, and every query answers exactly over the one frozen
// snapshot it pinned.
type DB struct {
	// Immutable after construction.
	ix        *spindex.Index
	venues    map[string]spindex.BaseID
	baseNames []string // venue name by BaseID, the inverse of venues

	unit     time.Duration
	measureU float64
	measureV float64
	jaccard  bool

	// mu guards the small ingest side: the entity name registry, the pending
	// visits, the ingested counts, the write sequence and the (write-once)
	// epoch. Nothing under mu is ever held across an index build or a search.
	mu    sync.RWMutex
	names map[string]trace.EntityID
	byID  []string
	// registered mirrors len(byID) for NumEntities, which reads it without mu.
	registered atomic.Int64
	// pending holds each entity's visits the serving snapshot does not cover
	// yet, in ingest order; a publish drops exactly the prefix its build
	// folded. Its key set is the dirty set.
	pending map[trace.EntityID][]trace.Record
	// ingested counts each entity's stored visits by ID, folded or pending:
	// ingested[e] − len(pending[e]) is what the serving snapshot covers — the
	// count an image records.
	ingested []uint32
	// writeSeq counts ingested visits, from 1: a published snapshot records
	// the count its view captured and covers every visit up to it, so a
	// writer whose count a publish covers is acknowledged without a fold of
	// its own (ack).
	writeSeq      uint64
	epoch         time.Time
	epochSet      bool
	epochExplicit bool // epoch came from WithEpoch, not from data

	// snap is the serving index: an immutable snapshot published by atomic
	// pointer swap. Queries load it once and search lock-free; builders
	// construct the next snapshot aside and publish it (snapshot.go).
	snap atomic.Pointer[snapshot]
	// buildMu serializes snapshot publishers (BuildIndex, opens, acknowledged
	// writes' folds and the first query's lazy first build). A query waits
	// on it only before the first publish.
	buildMu sync.Mutex

	// mappings are the file mappings live snapshots may serve sequences
	// from. A replaced mapping is never unmapped mid-flight — queries pinned
	// to an old snapshot may still fault its pages — so they accumulate here
	// (guarded by mu) until Close unmaps them all.
	mappings []*mmap.Mapping

	// cache is the generation-keyed hot-query cache (nil without
	// WithQueryCache). Entries are stamped with the serving snapshot's
	// generation; one stamped with an older generation is revalidated
	// against the serving snapshot's dirty log on lookup (cache.go).
	cache *qcache.Cache[[]Match]

	// tracer is the per-query trace ring (nil without WithTracing — the
	// disabled state every obs method no-ops on; tracing.go).
	tracer *obs.Tracer
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
		measureU:  2,
		measureV:  2,
		names:     map[string]trace.EntityID{},
		pending:   map[trace.EntityID][]trace.Record{},
		writeSeq:  1,
	}
	for _, opt := range opts {
		if err := opt(db); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Levels returns the number of hierarchy levels.
func (db *DB) Levels() int { return db.ix.Height() }

// NumEntities returns the number of known entities, without taking the
// ingest lock.
func (db *DB) NumEntities() int { return int(db.registered.Load()) }

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

// AddVisit records that entity was present at venue during [start, end):
// AddVisits of one record, whose refusal comes back without the record index.
// Visits may arrive in any order and may overlap.
func (db *DB) AddVisit(entity, venue string, start, end time.Time) error {
	n, err := db.AddVisits([]VisitRecord{{Entity: entity, Venue: venue, Start: start, End: end}})
	if n == 0 {
		err = errors.Unwrap(err)
	}
	return err
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
//
// Once the DB has published an index (BuildIndex, OpenIndex, a bulk load or
// the first query), the stored visits are indexed when the call returns: it
// folds them into the next snapshot and publishes it first, unless a fold
// already in flight captured them, so every query issued afterwards sees
// them. Before the first index they stay pending until BuildIndex or the
// first query builds it. A fold that fails leaves the visits stored and
// pending — the count is then len(visits) and the error the fold's — and the
// next acknowledged write or BuildIndex folds them.
func (db *DB) AddVisits(visits []VisitRecord) (int, error) {
	db.mu.Lock()
	var (
		n   int
		err error
	)
	for ; n < len(visits); n++ {
		if err = db.addVisitLocked(visits[n]); err != nil {
			err = fmt.Errorf("visit %d: %w", n, err)
			break
		}
	}
	seq := db.writeSeq
	db.mu.Unlock()
	if n > 0 {
		if ferr := db.ack(seq); err == nil {
			err = ferr
		}
	}
	return n, err
}

func (db *DB) addVisitLocked(v VisitRecord) error {
	epoch := db.epoch
	if !db.epochSet {
		epoch = v.Start.Truncate(db.unit) // the first stored visit fixes it
	}
	r, err := db.discretize(v.Venue, v.Start, v.End, epoch)
	switch err {
	case errVenue:
		return fmt.Errorf("digitaltraces: unknown venue %q", v.Venue)
	case errSpan:
		return fmt.Errorf("digitaltraces: empty visit span %v..%v", v.Start, v.End)
	case errEpoch:
		return fmt.Errorf("digitaltraces: visit at %v precedes the epoch %v (set WithEpoch)", v.Start, epoch)
	}
	db.epoch, db.epochSet = epoch, true
	r.Entity = db.register(v.Entity)
	db.pending[r.Entity] = append(db.pending[r.Entity], r)
	db.ingested[r.Entity]++
	db.writeSeq++
	return nil
}

// The faults discretize refuses a visit for; each caller words its own.
var (
	errVenue = errors.New("unknown venue")
	errSpan  = errors.New("empty span")
	errEpoch = errors.New("start before the epoch")
)

// discretize converts a visit to its record against epoch, entity left
// unset — the one conversion ingest and query-by-example share, so an
// example built from VisitsOf output reproduces the entity's stored cells
// bit-for-bit: the start floors to its unit, the end ceils, and a sub-unit
// span becomes one unit.
func (db *DB) discretize(venue string, start, end, epoch time.Time) (trace.Record, error) {
	base, ok := db.venues[venue]
	su := int64(start.Sub(epoch) / db.unit)
	switch {
	case !ok:
		return trace.Record{}, errVenue
	case !end.After(start):
		return trace.Record{}, errSpan
	case su < 0:
		return trace.Record{}, errEpoch
	}
	eu := max(int64((end.Sub(epoch)+db.unit-1)/db.unit), su+1)
	return trace.Record{Base: base, Start: trace.Time(su), End: trace.Time(eu)}, nil
}

// register returns the entity's ID, assigning the next one on first sight.
// Callers hold mu, or own a DB no one else can reach yet.
func (db *DB) register(name string) trace.EntityID {
	e, ok := db.names[name]
	if !ok {
		e = trace.EntityID(len(db.byID))
		db.names[name] = e
		db.byID = append(db.byID, name)
		db.ingested = append(db.ingested, 0)
		db.registered.Store(int64(len(db.byID)))
	}
	return e
}

// BuildIndex (re)builds the index over all current visits. Cost is the
// sequence building plus sealing the postings, O(total cells), but the work
// happens entirely off to the side: the build captures a frozen visit view,
// constructs the next snapshot, and atomically swaps it in — in-flight and
// newly arriving queries keep answering from the previous snapshot instead of
// stalling behind the rebuild.
func (db *DB) BuildIndex() error {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	_, err := db.buildSnapshot()
	return err
}

// TopK returns the k entities most closely associated with the named entity
// (Definition 4), with exact degrees, plus query statistics. Safe to call
// from any number of goroutines, and never blocked by index maintenance once
// an index exists; see the DB concurrency contract.
func (db *DB) TopK(entity string, k int) ([]Match, QueryStats, error) {
	return db.topK(entity, k, 0)
}

// topK is TopK traced under batchID, the ID linking the items of one
// TopKBatch call (0 outside a batch).
func (db *DB) topK(entity string, k int, batchID uint64) ([]Match, QueryStats, error) {
	return db.query(obs.KindTopK, entity, k, batchID, qcache.EntityKey(entity, k), func(s *snapshot) (*trace.Sequences, error) {
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
		db.record(obs.KindExample, "", k, 0, nil, nil, QueryStats{}, err, start)
		return nil, QueryStats{}, err
	}
	return db.query(obs.KindExample, "", k, 0, exampleKey(q, k), func(*snapshot) (*trace.Sequences, error) { return q, nil })
}

// query answers one top-k query and records its trace under batchID (0
// outside a batch). It runs through the cache (qcache.DoRevalidating under
// cacheVersion, an entry stamped with an older generation revalidated by
// stillExact), and a miss searches the snapshot snapshotForQuery pins, for
// the sequences resolve finds in it.
func (db *DB) query(kind obs.Kind, entity string, k int, batchID uint64, key string, resolve func(*snapshot) (*trace.Sequences, error)) ([]Match, QueryStats, error) {
	start := time.Now()
	var (
		seen, pinned *snapshot
		qs           QueryStats
	)
	out, hit, err := qcache.DoRevalidating(db.cache, key, func() (v string, ok bool) {
		v, seen, ok = db.cacheVersion()
		return v, ok
	}, func(since string, answer []Match) bool {
		return db.stillExact(seen, since, k, answer, resolve)
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
	db.record(kind, entity, k, batchID, pinned, out, qs, err, start)
	return out, qs, err
}

// exampleSequences discretizes example visits into the hypothetical entity's
// ST-cell sequences (entity ID −1) through the ingest path's discretize. The
// epoch is write-once, so the result is stable once it is set;
// TopKByExample and Rank share this so a cluster's example fan-out can never
// discretize differently from a single DB.
func (db *DB) exampleSequences(visits []Visit) (*trace.Sequences, error) {
	epoch, set, explicit := db.epochInfo()
	if !set {
		// No visit yet (the first one fixes the epoch): converting with the
		// zero epoch would silently produce nonsense unit offsets.
		return nil, fmt.Errorf("digitaltraces: no epoch to anchor example visits (ingest a visit or set WithEpoch)")
	}
	var recs []trace.Record
	for i, v := range visits {
		r, err := db.discretize(v.Venue, v.Start, v.End, epoch)
		switch err {
		case errVenue:
			return nil, fmt.Errorf("digitaltraces: unknown venue %q", v.Venue)
		case errSpan:
			return nil, fmt.Errorf("digitaltraces: example visit %d: empty span %v..%v", i, v.Start, v.End)
		case errEpoch:
			return nil, fmt.Errorf("digitaltraces: example visit %d at %v precedes the epoch %v — the epoch was %s; set WithEpoch to cover the example's span",
				i, v.Start, epoch, epochOrigin(explicit))
		}
		r.Entity = -1
		recs = append(recs, r)
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

// SaveIndex persists the built index to w as one image: the entity table
// with each entity's name and covered visit count, the time-unit / epoch /
// measure scalars, every entity's level sizes, the level-1 cell index and
// every entity's serialized sequences, page-aligned — so OpenIndex serves
// queries straight off a read-only mapping of the file with no visit
// re-ingest at all.
//
// The image covers every write acknowledged when the save began (the index
// is built first if absent). Each entity's covered count is exact — what it
// has ingested minus what is still pending — even for one that receives
// visits while the save is in flight. The write itself runs outside every
// lock.
func (db *DB) SaveIndex(w io.Writer) (int64, error) {
	db.buildMu.Lock()
	s := db.snap.Load()
	var err error
	if s == nil {
		s, err = db.buildSnapshot()
	}
	if err != nil {
		db.buildMu.Unlock()
		return 0, err
	}
	// Capture the covered counts while buildMu still serializes publishers:
	// writers grow ingested and pending together, so the difference is what
	// s folded whatever arrives meanwhile.
	ents := s.post.Entities()
	folded := make([]uint32, len(s.byID))
	db.mu.RLock()
	epoch := db.epoch
	for _, e := range ents {
		folded[e] = db.ingested[e] - uint32(len(db.pending[e]))
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
	// The postings, store and captured tables are immutable from here; write
	// outside every lock.
	return s.post.WriteSnapshot(w, meta, s.store, func(e trace.EntityID) (string, uint32) {
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
	MemoryBytes int // the postings: entity table and level-1 cell index
	BuildTime   time.Duration
	// Generation counts snapshot swaps: 0 before the first build, 1 after
	// it, +1 for every subsequent swap — a BuildIndex, an open or an
	// acknowledged write's fold. An aggregated engine sums its members'
	// generations (total swaps cluster-wide).
	Generation uint64
	// LastSwap is when the serving snapshot was published (zero before the
	// first build; on an aggregated engine, the latest member swap).
	LastSwap time.Time
	// LastRefreshDuration is how long the fold that published the serving
	// snapshot took — the cost of the last O(dirty) fold-and-swap an
	// acknowledged write paid. Zero when the snapshot came from a full
	// BuildIndex (or none exists). An aggregated engine reports its slowest
	// member's, mirroring BuildTime.
	LastRefreshDuration time.Duration
	// Query-cache counters (all zero unless the engine was built with
	// WithQueryCache, or shard.Config.CacheSize for a cluster). Hits and
	// misses count lookups. A lookup that finds its entry stamped with an
	// older generation revalidates it: CacheRevalidated counts the stale
	// entries served that way (also counted as hits), CacheInvalidated the
	// stale entries dropped (also counted as misses; a cluster, which has
	// no revalidator, drops every stale entry). Evictions count capacity
	// displacements only, never staleness. Entries is the number of entries
	// held, whatever their generation. An aggregated engine reports its own
	// cluster-level cache's.
	CacheHits        uint64
	CacheMisses      uint64
	CacheRevalidated uint64
	CacheInvalidated uint64
	CacheEvictions   uint64
	CacheEntries     int
	// Latencies summarizes per-query-kind latency histograms ("topk",
	// "example", "batch", "merge") — nil unless tracing is on (WithTracing /
	// shard.Config.TraceSize) and at least one query was observed. An
	// aggregated engine reports its own coordinator-level tracer's view.
	Latencies map[string]LatencySummary
	// Mapped reports that the serving snapshot reads sequences lazily from
	// an opened index image (OpenIndex) instead of building them; Decoded is
	// how many of the image's entities have been read and decoded into the
	// heap so far — each once, on first touch — so it tracks the resident
	// share of the image. Both zero on built snapshots. An aggregated engine
	// ORs Mapped and sums Decoded.
	Mapped  bool
	Decoded int
}

// IndexStats returns current index statistics — one atomic snapshot load,
// never blocked by rebuilds or ingest.
func (db *DB) IndexStats() IndexStats {
	out := IndexStats{Latencies: db.tracer.Summaries()}
	if db.cache != nil {
		cs := db.cache.Stats()
		out.CacheHits = cs.Hits
		out.CacheMisses = cs.Misses
		out.CacheRevalidated = cs.Revalidated
		out.CacheInvalidated = cs.Invalidated
		out.CacheEvictions = cs.Evictions
		out.CacheEntries = cs.Entries
	}
	s := db.snap.Load()
	if s == nil {
		return out
	}
	out.Entities = s.post.Len()
	out.MemoryBytes = s.post.MemoryBytes()
	out.BuildTime = s.buildTime
	out.Generation = s.generation
	out.LastSwap = s.swappedAt
	out.LastRefreshDuration = s.refreshTime
	if b, ok := s.store.Backing().(*storage.SpanReader); ok {
		out.Mapped = true
		out.Decoded = b.Decoded()
	}
	return out
}
