// Package baseline implements the locality-based comparison approach of
// Section 7.2 of "Top-k Queries over Digital Traces".
//
// At each sp-index level, every entity's ST-cell set is a transaction and
// frequent pattern mining (internal/fpm) partitions ST-cells into clusters
// of frequently co-occurring cells. Each entity is summarized by a bit
// vector with one bit per cluster (set iff the entity is present in at least
// one of the cluster's cells); entities sharing a vector form a group.
// A query computes an ADM upper bound against each group's vector, scans
// groups in descending bound order, and terminates early exactly like
// Algorithm 2.
//
// The paper's point — reproduced by the Figure 7.7 experiment — is that
// real digital traces exhibit low ST-cell locality, so clusters couple
// strongly, vectors discriminate poorly, bounds stay loose, and the bitmap
// baseline prunes far less than the MinSigTree.
package baseline

import (
	"fmt"
	"slices"
	"sort"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/fpm"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// Config controls cluster construction.
type Config struct {
	// MinSupportFrac is the fraction of entities a cell pair must co-occur
	// in to be considered frequent (e.g. 0.02 = 2%).
	MinSupportFrac float64
}

// DefaultConfig mirrors the low thresholds needed to find any clusters in
// sparse trace data.
func DefaultConfig() Config { return Config{MinSupportFrac: 0.02} }

// Bitmap is the built baseline index.
type Bitmap struct {
	ix       *spindex.Index
	src      core.SequenceSource
	m        int
	total    int
	clusters []map[trace.Cell]int32 // per level: cell -> cluster id (unmapped cells are singleton clusters)
	groups   []group
}

type group struct {
	vec      []int32 // concatenated per-level cluster ids with level offsets, sorted
	entities []trace.EntityID
}

// Build mines clusters at every level over the given entities and groups
// them by bit vector.
func Build(ix *spindex.Index, src core.SequenceSource, entities []trace.EntityID, cfg Config) (*Bitmap, error) {
	if cfg.MinSupportFrac <= 0 || cfg.MinSupportFrac > 1 {
		return nil, fmt.Errorf("baseline: min support fraction %v outside (0,1]", cfg.MinSupportFrac)
	}
	if len(entities) == 0 {
		return nil, fmt.Errorf("baseline: no entities")
	}
	m := ix.Height()
	b := &Bitmap{ix: ix, src: src, m: m, total: len(entities), clusters: make([]map[trace.Cell]int32, m)}
	minSup := int(cfg.MinSupportFrac * float64(len(entities)))
	if minSup < 2 {
		minSup = 2
	}
	for l := 1; l <= m; l++ {
		txs := make([][]uint64, 0, len(entities))
		for _, e := range entities {
			s := src.Get(e)
			if s == nil {
				return nil, fmt.Errorf("baseline: entity %d missing from source", e)
			}
			cells := s.At(l)
			tx := make([]uint64, len(cells))
			for i, c := range cells {
				tx[i] = uint64(c)
			}
			txs = append(txs, tx)
		}
		sets, err := fpm.Mine(txs, fpm.Config{MinSupport: minSup, MaxLen: 2})
		if err != nil {
			return nil, err
		}
		ids := fpm.ClusterItems(sets)
		lvl := make(map[trace.Cell]int32, len(ids))
		for cell, id := range ids {
			lvl[trace.Cell(cell)] = int32(id)
		}
		b.clusters[l-1] = lvl
	}
	// Group entities by vector.
	byKey := make(map[string]*group)
	var keys []string
	for _, e := range entities {
		vec := b.vector(src.Get(e))
		k := vecKey(vec)
		g, ok := byKey[k]
		if !ok {
			g = &group{vec: vec}
			byKey[k] = g
			keys = append(keys, k)
		}
		g.entities = append(g.entities, e)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.groups = append(b.groups, *byKey[k])
	}
	return b, nil
}

// Groups returns the number of distinct bit vectors — the paper's measure of
// how well clusters capture presence patterns (strong coupling ⇒ few or
// singleton groups).
func (b *Bitmap) Groups() int { return len(b.groups) }

// Clusters returns the number of mined clusters at the given level
// (excluding implicit singleton clusters of unmapped cells).
func (b *Bitmap) Clusters(level int) int {
	ids := map[int32]bool{}
	for _, id := range b.clusters[level-1] {
		ids[id] = true
	}
	return len(ids)
}

// vector computes the entity's concatenated cluster-ID vector: per level,
// the sorted IDs of mined clusters the entity has presence in, offset so
// levels don't collide. Cells outside every mined cluster contribute no bit
// — exactly the paper's bitmap. Such cells are why the baseline's bounds
// are loose: they could be shared with any entity, so the upper bound must
// always charge for them.
func (b *Bitmap) vector(s *trace.Sequences) []int32 {
	var vec []int32
	var offset int32
	for l := 1; l <= b.m; l++ {
		lvl := b.clusters[l-1]
		seen := map[int32]bool{}
		for _, c := range s.At(l) {
			if id, ok := lvl[c]; ok {
				seen[id] = true
			}
		}
		ids := make([]int32, 0, len(seen))
		for id := range seen {
			ids = append(ids, offset+id)
		}
		slices.Sort(ids)
		vec = append(vec, ids...)
		offset += int32(len(lvl)) + 1
	}
	return vec
}

func vecKey(vec []int32) string {
	buf := make([]byte, 0, len(vec)*4)
	for _, v := range vec {
		u := uint32(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(buf)
}

// TopK answers a top-k query with the bitmap index: groups are ranked by an
// admissible upper bound (the query's cell count restricted to clusters the
// group shares), scanned in descending order, and the scan stops once k
// exact degrees dominate the remaining bounds. Results are exact; only
// pruning effectiveness differs from the MinSigTree.
func (b *Bitmap) TopK(q *trace.Sequences, k int, measure adm.Measure) ([]core.Result, core.SearchStats, error) {
	var stats core.SearchStats
	if k < 1 {
		return nil, stats, fmt.Errorf("baseline: k = %d < 1", k)
	}
	if q.Levels() != b.m {
		return nil, stats, fmt.Errorf("baseline: query has %d levels, index has %d", q.Levels(), b.m)
	}
	qCounts := make([]int, b.m)
	for l := 1; l <= b.m; l++ {
		qCounts[l-1] = q.Size(l)
	}
	// Per level: how many query cells fall in each mined cluster, and how
	// many fall outside every cluster (those can be shared with any entity
	// and are charged to every group's bound).
	type cellRef struct {
		level int
		id    int32
	}
	perEntry := map[cellRef]int{}
	unmapped := make([]int, b.m)
	var offset int32
	for l := 1; l <= b.m; l++ {
		lvl := b.clusters[l-1]
		for _, c := range q.At(l) {
			if id, ok := lvl[c]; ok {
				perEntry[cellRef{l, offset + id}]++
			} else {
				unmapped[l-1]++
			}
		}
		offset += int32(len(lvl)) + 1
	}

	type scored struct {
		g  *group
		ub float64
	}
	ranked := make([]scored, 0, len(b.groups))
	for i := range b.groups {
		g := &b.groups[i]
		counts := make([]int, b.m)
		copy(counts, unmapped)
		gset := make(map[int32]bool, len(g.vec))
		for _, v := range g.vec {
			gset[v] = true
		}
		for ref, n := range perEntry {
			if gset[ref.id] {
				counts[ref.level-1] += n
			}
		}
		ranked = append(ranked, scored{g: g, ub: measure.UpperBound(counts, qCounts, nil)})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].ub > ranked[j].ub })

	var results []core.Result
	for _, sc := range ranked {
		stats.NodesPopped++
		if len(results) >= k && results[k-1].Degree >= sc.ub {
			break
		}
		for _, e := range sc.g.entities {
			if e == q.Entity {
				continue
			}
			s := b.src.Get(e)
			if s == nil {
				return nil, stats, fmt.Errorf("baseline: entity %d missing from source", e)
			}
			stats.Checked++
			results = append(results, core.Result{Entity: e, Degree: measure.Degree(q, s)})
		}
		sort.Slice(results, func(i, j int) bool {
			if results[i].Degree != results[j].Degree {
				return results[i].Degree > results[j].Degree
			}
			return results[i].Entity < results[j].Entity
		})
		if len(results) > k {
			results = results[:k]
		}
	}
	n := b.total
	if _, selfIndexed := b.entityIndexed(q.Entity); selfIndexed {
		n--
	}
	if n > 0 {
		stats.PE = float64(stats.Checked-len(results)) / float64(n)
		if stats.PE < 0 {
			stats.PE = 0
		}
		stats.Pruned = 1 - float64(stats.Checked)/float64(n)
	}
	return results, stats, nil
}

func (b *Bitmap) entityIndexed(e trace.EntityID) (int, bool) {
	for gi := range b.groups {
		for _, id := range b.groups[gi].entities {
			if id == e {
				return gi, true
			}
		}
	}
	return -1, false
}
