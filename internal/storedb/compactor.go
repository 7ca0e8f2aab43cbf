package storedb

import "fmt"

// Background compaction. Writing the snapshot inline under commitMu
// would make every CompactEvery-th group pay seconds of fsync-heavy
// snapshot I/O while the whole commit pipeline stalled behind it, so
// commitLocked only signals the compactor goroutine, which does the
// expensive work in two phases:
//
//  1. Snapshot, with no commit-path locks held: capture a settled
//     (tree, seq, digest) triple under a brief commitMu acquisition,
//     then encode and durably install the snapshot while commits keep
//     flowing. An error here is retryable — nothing was swapped — so it
//     is not sticky; the next signal tries again.
//
//  2. WAL tail swap, under commitMu: the frames of batches committed
//     during phase 1 are copied to a fresh log (WAL.swap), which is
//     synced and renamed over the old one; if they rotted on disk, a
//     snapshot of the tree replaces them. An error here may leave the
//     log half-swapped, so it fails the store sticky exactly as a failed
//     manual Compact does; Reopen recovers from the just-written
//     snapshot plus whichever log survived.
//
// compactMu is held across both phases so a manual Compact, a Scrub, a
// restore, or a second signal can never interleave file rewrites with a
// compaction in flight.

// compactorLoop runs until Close, compacting once per signal.
func (db *DB) compactorLoop() {
	defer db.bg.Done()
	for {
		select {
		case <-db.bgStop:
			return
		case <-db.compactKick:
		}
		_ = db.compactOnce() // errors are sticky or retried on the next signal
	}
}

// compactOnce performs one full background compaction cycle. Safe to
// call from any goroutine; no-ops when there is nothing new to cover or
// the store cannot compact (closed, failed, corrupt, in-memory).
func (db *DB) compactOnce() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if db.closed.Load() || db.fault.Load() != nil || db.opts.Dir == "" {
		return nil
	}

	// Phase 1: snapshot outside commitMu. Under the brief acquisition
	// the chain digest is settled at seq, so the captured triple is
	// consistent.
	db.commitMu.Lock()
	t := *db.current.Load()
	seq := db.seq.Load()
	digest := db.chainDigest.Load()
	var off int64 // where the log ends at seq
	if db.wal != nil {
		off = db.wal.off
	}
	db.commitMu.Unlock()
	if seq <= db.snapSeq.Load() {
		return nil // newest snapshot already covers everything durable
	}
	if err := writeSnapshot(db.opts.Dir, t, seq, digest); err != nil {
		return err // nothing swapped; retried when the next signal arrives
	}

	// Phase 2: swap the WAL tail under commitMu.
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed.Load() || db.fault.Load() != nil || db.wal == nil {
		return nil
	}
	if err := db.swapWalTailLocked(seq, digest, off); err != nil {
		// The log may be half-swapped; the snapshot is already durable,
		// so Reopen recovers from it plus whichever log survived.
		db.fail(fmt.Errorf("background compaction: %w", err))
		return err
	}
	return nil
}

// swapWalTailLocked replaces the log with one holding only the batches
// past cover — the commits that landed while the phase-1 snapshot was
// being written, the log's bytes past off — and records the snapshot.
// The replacement is built as WAL.swap, synced, renamed over the log,
// and the directory synced, so a crash at any point leaves either the
// complete old log or the complete new one. A tail that is not those
// batches' frames is not carried: compactLocked snapshots the tree, which
// holds every acked batch, instead. Caller holds compactMu and commitMu;
// the snapshot covering cover, with digest, is already durably in place.
func (db *DB) swapWalTailLocked(cover, digest uint64, off int64) error {
	tail, ok := db.walTailLocked(cover, off)
	if !ok {
		return db.compactLocked()
	}
	db.walMutGen.Add(1)
	defer db.walMutGen.Add(1)
	if err := db.wal.close(); err != nil {
		db.wal = nil
		return fmt.Errorf("storedb: close wal before swap: %w", err)
	}
	db.wal = nil

	sw, err := openWalWriter(db.swapPath(), false)
	if err != nil {
		return fmt.Errorf("storedb: create swap wal: %w", err)
	}
	if len(tail) > 0 {
		if n, err := fsWrite(sw.f, tail, "wal"); err != nil || n != len(tail) {
			sw.close()
			return fmt.Errorf("storedb: carry batches to swap wal: wrote %d of %d bytes: %v", n, len(tail), err)
		}
	}
	if err := sw.syncNow(); err != nil {
		sw.close()
		return fmt.Errorf("storedb: sync swap wal: %w", err)
	}
	if err := sw.close(); err != nil {
		return fmt.Errorf("storedb: close swap wal: %w", err)
	}
	if err := fsRename(db.swapPath(), db.walPath()); err != nil {
		return fmt.Errorf("storedb: install swap wal: %w", err)
	}
	if err := fsSyncDir(db.opts.Dir); err != nil {
		return fmt.Errorf("storedb: sync dir after wal swap: %w", err)
	}
	w, err := openWalWriter(db.walPath(), db.opts.SyncWrites)
	if err != nil {
		return err
	}
	db.wal = w
	db.pending = int(db.seq.Load() - cover)
	db.snapSeq.Store(cover)
	db.snapDigest.Store(digest)
	db.compactions.Add(1)
	return nil
}
