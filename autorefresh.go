package digitaltraces

// Background auto-refresh: a policy goroutine that folds dirty entities into
// the serving snapshot proactively instead of piggybacking on the next
// query. Cheap O(dirty) copy-on-write swaps (snapshot.go) make this viable
// at high frequency — a refresh never blocks readers and costs work
// proportional to the dirt, so the policy can fire eagerly without taxing
// the query path.

import (
	"errors"
	"fmt"
	"time"
)

// WithAutoRefresh enables background index maintenance: a goroutine swaps in
// a refreshed snapshot whenever the dirty-entity count reaches maxDirty, or
// whenever dirt has been waiting and the serving snapshot is older than
// maxStaleness. Either threshold may be zero to disable that trigger, but
// not both. With the policy active, queries almost never find a stale
// snapshot, so the lazy refresh-on-read path becomes a rare fallback.
//
// The policy only maintains an existing index — it never builds the first
// snapshot, so enabling it on a DB that is still bulk-loading costs
// nothing until BuildIndex (or the first query) publishes one.
//
// The goroutine escalates ErrBeyondHorizon to a full BuildIndex (matching
// the query path) and otherwise retries on its next tick; it never fires
// while nothing is dirty. Stop it with Close — a DB with auto-refresh must
// be Closed or the goroutine (and the DB) leak. /stats exposes the policy's
// behavior: generation and last_swap show swaps happening, dirty_count and
// last_refresh_ms show what each one cost.
func WithAutoRefresh(maxDirty int, maxStaleness time.Duration) Option {
	return func(db *DB) error {
		if maxDirty < 0 {
			return fmt.Errorf("digitaltraces: negative auto-refresh dirty threshold %d", maxDirty)
		}
		if maxStaleness < 0 {
			return fmt.Errorf("digitaltraces: negative auto-refresh staleness %v", maxStaleness)
		}
		if maxDirty == 0 && maxStaleness == 0 {
			return fmt.Errorf("digitaltraces: WithAutoRefresh needs a dirty threshold or a staleness deadline (both zero)")
		}
		db.autoMaxDirty = maxDirty
		db.autoMaxStale = maxStaleness
		return nil
	}
}

// startAutoRefresh launches the policy goroutine if WithAutoRefresh
// configured one. Called once from newDB after options are applied.
func (db *DB) startAutoRefresh() {
	if db.autoMaxDirty == 0 && db.autoMaxStale == 0 {
		return
	}
	db.autoStop = make(chan struct{})
	db.autoDone = make(chan struct{})
	go db.autoRefreshLoop(db.autoPollInterval())
}

// autoPollInterval picks how often the policy wakes. A tick is one
// shared-lock counter read when nothing is due, so waking often is cheap;
// the staleness deadline just needs several ticks inside it to be met with
// reasonable precision.
func (db *DB) autoPollInterval() time.Duration {
	const (
		defaultPoll = 5 * time.Millisecond
		minPoll     = time.Millisecond
		maxPoll     = 100 * time.Millisecond
	)
	if db.autoMaxStale == 0 {
		return defaultPoll
	}
	return min(max(db.autoMaxStale/8, minPoll), maxPoll)
}

func (db *DB) autoRefreshLoop(poll time.Duration) {
	defer close(db.autoDone)
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-db.autoStop:
			return
		case <-tick.C:
			db.autoRefreshTick()
		}
	}
}

// autoRefreshTick fires one policy decision: refresh if either threshold is
// crossed. The policy never builds the *first* snapshot — before one exists
// the DB is typically mid bulk-load, and eagerly indexing a partial dataset
// would trigger a premature build plus, for time-ordered ingest, a
// beyond-horizon full rebuild on every subsequent tick; the first
// BuildIndex (or the first query's lazy build) starts the clock instead.
// Errors are not fatal to the loop — the dirt stays recorded and the next
// tick retries — and a horizon overrun escalates to a full rebuild exactly
// like the query path's lazy escalation.
func (db *DB) autoRefreshTick() {
	s := db.snap.Load()
	if s == nil {
		return
	}
	dirty := db.PendingEntities()
	if dirty == 0 {
		return
	}
	due := db.autoMaxDirty > 0 && dirty >= db.autoMaxDirty
	if !due && db.autoMaxStale > 0 {
		due = time.Since(s.swappedAt) >= db.autoMaxStale
	}
	if !due {
		return
	}
	if err := db.Refresh(); errors.Is(err, ErrBeyondHorizon) {
		db.BuildIndex() //nolint:errcheck // recorded dirt makes the next tick retry
	}
}

// Close stops the background auto-refresh goroutine, blocking until it has
// exited, and unmaps any index file mappings (LoadMappedIndex). Close is
// idempotent and the error is always nil (the signature is io.Closer-shaped
// for composition). Queries and ingest remain usable after Close on a
// heap-served DB — only the background policy stops — but a mapped DB's
// snapshots must not be queried after Close unmaps their backing.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if db.autoStop != nil {
			close(db.autoStop)
			<-db.autoDone
		}
		db.mu.Lock()
		maps := db.mappings
		db.mappings = nil
		db.mu.Unlock()
		for _, m := range maps {
			m.Close()
		}
	})
	return nil
}
