package storedb

// ringFloorForTest exposes the oldest retained ring sequence to tests.
func (db *DB) ringFloorForTest() (uint64, bool) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.recent == nil {
		return 0, false
	}
	return db.recent.oldestSeq()
}
