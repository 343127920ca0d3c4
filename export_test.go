package digitaltraces

// pendingCount is the number of entities with visits db's serving snapshot
// does not cover yet.
func pendingCount(db *DB) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.pending)
}

// PendingCount is pendingCount for the external test package.
var PendingCount = pendingCount
