package digitaltraces

import (
	"fmt"
	"time"

	"digitaltraces/internal/mobility"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// CityConfig describes a synthetic city for SyntheticCity: a Side×Side grid
// of venues organized into a power-law sp-index (Section 6.2 of the paper),
// populated by entities moving under the individual-mobility model of
// Section 6.1.
type CityConfig struct {
	// Side is the venue grid side; the city has Side² venues.
	Side int
	// Levels is the hierarchy height (default 4).
	Levels int
	// Entities is the population size.
	Entities int
	// Days is the horizon length in days (default 30).
	Days int
	// Mobility overrides the IM parameters; zero value uses the paper's
	// defaults (α=0.6, β=0.8, γ=0.2, ζ=1.2, ρ=0.6).
	Mobility *mobility.IMConfig
	// Seed fixes the population (default 1).
	Seed int64
}

// SyntheticCity builds a DB pre-loaded with an IM-model population — the
// paper's SYN dataset at configurable scale. Venue names are "venue-<n>"
// and entity names "entity-<n>". The index is not yet built; call
// BuildIndex (or just query, which builds lazily).
func SyntheticCity(cfg CityConfig, opts ...Option) (*DB, error) {
	if cfg.Days == 0 {
		cfg.Days = 30
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Entities < 1 {
		return nil, fmt.Errorf("digitaltraces: city population %d < 1", cfg.Entities)
	}
	db, err := gridDB(cfg.Side, cfg.Levels, opts...)
	if err != nil {
		return nil, err
	}
	im := mobility.DefaultIMConfig()
	if cfg.Mobility != nil {
		im = *cfg.Mobility
	}
	im.Horizon = trace.Time(cfg.Days * 24)
	im.Seed = cfg.Seed
	gen, err := mobility.NewGenerator(db.ix, im)
	if err != nil {
		return nil, err
	}
	return populate(db, cfg.Entities, gen.Entity), nil
}

// WiFiCityConfig describes a synthetic WiFi-handshake population for
// SyntheticWiFiCity — the substitute for the thesis' proprietary REAL
// dataset (see DESIGN.md for the substitution rationale).
type WiFiCityConfig struct {
	// Side is the hotspot grid side; the city has Side² hotspots.
	Side int
	// Levels is the hierarchy height (default 4, as in the REAL data).
	Levels int
	// Devices is the number of devices.
	Devices int
	// Days is the horizon length in days (default 30).
	Days int
	// Seed fixes the population (default 1).
	Seed int64
}

// SyntheticWiFiCity builds a DB pre-loaded with a WiFi-handshake-style
// population: Zipf-popular hotspots, home/work anchors, diurnal sessions.
func SyntheticWiFiCity(cfg WiFiCityConfig, opts ...Option) (*DB, error) {
	if cfg.Days == 0 {
		cfg.Days = 30
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("digitaltraces: device count %d < 1", cfg.Devices)
	}
	db, err := gridDB(cfg.Side, cfg.Levels, opts...)
	if err != nil {
		return nil, err
	}
	w := mobility.DefaultWiFiConfig()
	w.Horizon = trace.Time(cfg.Days * 24)
	w.Seed = cfg.Seed
	gen, err := mobility.NewWiFiGenerator(db.ix, w)
	if err != nil {
		return nil, err
	}
	return populate(db, cfg.Devices, gen.Entity), nil
}

// NewGridDB creates an empty DB over the same Side×Side power-law grid
// hierarchy the synthetic cities and tracegen record files use: venues named
// "venue-<n>" and (unless WithEpoch overrides it) the Unix epoch with one
// base unit per hour. Levels 0 defaults to 4. It is the shard factory for
// grid-backed clusters: shard.Partition over a SyntheticCity or
// LoadRecordFile DB needs empty, epoch-compatible shards to route into.
func NewGridDB(side, levels int, opts ...Option) (*DB, error) {
	return gridDB(side, levels, opts...)
}

// gridDB is the one grid rule every grid-backed constructor follows: levels
// 0 means 4, the side must be at least 2, and the DB takes the shared
// synthetic/file conventions — venues named "venue-<n>" and (unless
// WithEpoch overrides it) the Unix epoch with one base unit per hour.
func gridDB(side, levels int, opts ...Option) (*DB, error) {
	if levels == 0 {
		levels = 4
	}
	if side < 2 {
		return nil, fmt.Errorf("digitaltraces: grid side %d < 2", side)
	}
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: side, Levels: levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		return nil, err
	}
	venues := make(map[string]spindex.BaseID, ix.NumBase())
	for b := 0; b < ix.NumBase(); b++ {
		venues[VenueName(b)] = spindex.BaseID(b)
	}
	db, err := newDB(ix, venues, opts...)
	if err != nil {
		return nil, err
	}
	if !db.epochSet {
		db.epoch = time.Unix(0, 0).UTC()
		db.epochSet = true
		db.epochExplicit = true // the convention is fixed, not data-inferred
	}
	return db, nil
}

// populate preloads n generated entities, "entity-<i>" with ID i, into a
// grid DB no one else can reach yet.
func populate(db *DB, n int, genEntity func(trace.EntityID) []trace.Record) *DB {
	for i := range n {
		db.preload(fmt.Sprintf("entity-%d", i), genEntity(trace.EntityID(i)))
	}
	return db
}

// preload registers an entity of a DB no one else can reach yet and stores
// its records, pending until BuildIndex or the first query folds them: the
// one step a generated or loaded population enters a DB by.
func (db *DB) preload(name string, recs []trace.Record) {
	e := db.register(name, -1)
	for i := range recs {
		recs[i].Entity = e
	}
	db.pending[e], db.ingested[e] = recs, uint32(len(recs))
}

// VenueName returns the canonical name of the venue with ordinal b in
// synthetic cities ("venue-<b>").
func VenueName(b int) string { return fmt.Sprintf("venue-%d", b) }

// TimeAt converts an hour offset into the synthetic cities' absolute time
// (their epoch is the Unix epoch, 1 hour per unit).
func TimeAt(hour int) time.Time { return time.Unix(0, 0).UTC().Add(time.Duration(hour) * time.Hour) }
