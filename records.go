package digitaltraces

import (
	"fmt"

	"digitaltraces/internal/extsort"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/trace"
)

// LoadRecordFile builds a DB from a binary record file in the cmd/tracegen
// format, over the same side×side power-law grid hierarchy the generator
// used. Entity IDs in the file become names "entity-<id>" (IDs may be
// sparse) and venues are "venue-<n>", matching the synthetic-city naming;
// the epoch is the Unix epoch with one-hour base units. The index is not yet
// built; call BuildIndex (or just query, which builds lazily).
//
// This is the file-based path cmd/serve uses to serve a tracegen workload
// over HTTP, and the one topk -index opens an image over; BulkLoadRecordFile
// is its out-of-core twin.
func LoadRecordFile(path string, side, levels int, opts ...Option) (*DB, error) {
	ix, err := spindex.NewGrid(spindex.GridConfig{Side: side, Levels: levels, WidthExp: 2, DensityExp: 2})
	if err != nil {
		return nil, err
	}
	recs, err := extsort.ReadRecords(path)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("digitaltraces: record file %s is empty", path)
	}
	byEnt := map[trace.EntityID][]trace.Record{}
	var fileIDs []trace.EntityID
	for i, r := range recs {
		if err := checkRecord(ix, i, r); err != nil {
			return nil, err
		}
		if _, ok := byEnt[r.Entity]; !ok {
			fileIDs = append(fileIDs, r.Entity)
		}
		byEnt[r.Entity] = append(byEnt[r.Entity], r)
	}
	db, err := newGridDB(ix, opts...)
	if err != nil {
		return nil, err
	}
	// Dense internal IDs in file order; names preserve the file's IDs.
	for _, fileID := range fileIDs {
		e := db.register(fmt.Sprintf("entity-%d", fileID))
		rr := byEnt[fileID]
		for i := range rr {
			rr[i].Entity = e
		}
		db.pending[e], db.ingested[e] = rr, uint32(len(rr))
	}
	return db, nil
}

// checkRecord validates record i of a record file against the grid both
// loaders build over.
func checkRecord(ix *spindex.Index, i int, r trace.Record) error {
	if r.Base < 0 || int(r.Base) >= ix.NumBase() {
		return fmt.Errorf("digitaltraces: record %d: base %d outside the %d-venue grid (wrong -side?)", i, r.Base, ix.NumBase())
	}
	if r.End <= r.Start || r.Start < 0 {
		return fmt.Errorf("digitaltraces: record %d: bad span [%d,%d)", i, r.Start, r.End)
	}
	return nil
}
