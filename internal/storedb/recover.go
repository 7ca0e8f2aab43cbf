package storedb

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Recovery: the paths that replace the committed state wholesale rather
// than advance it by a commit. Three of them (Open, Reopen,
// TruncateTail) read the store's own durable history back with
// rebuildLocked; the fourth (RestoreSnapshotFrom) takes a verified
// stream. All four publish through installLocked.

// committed is one whole committed state: what rebuildLocked reads back
// from disk or RestoreSnapshotFrom from a stream, and what
// installLocked publishes.
type committed struct {
	root       tree
	seq        uint64 // the last batch root contains
	digest     uint64 // history digest at seq
	snapSeq    uint64 // what the snapshot on disk covers
	snapDigest uint64 // history digest at snapSeq
	pending    int    // batches the log holds past the snapshot
	foreign    bool   // not this store's own history: a restored stream
}

// noLimit is rebuildLocked's limit on a cold open: the process has
// acknowledged nothing, so whatever verifies is the committed history.
const noLimit = ^uint64(0)

// rebuildLocked reads the store's durable history back — the newest
// snapshot, then the log's batches up to limit — and leaves the log
// ending exactly there and open for appends. It is the one copy of the
// rebuild-and-cut discipline; the limit is what tells its callers
// apart: none on a cold open, the last acknowledged sequence in Reopen
// (a batch that failed mid-append lies beyond it), the target in
// TruncateTail (the displaced tail lies beyond it). Batches beyond the
// limit are returned, not replayed, and the log is cut before the first
// of them at its frame boundary. With a limit, the log must rebuild
// exactly that sequence or nothing is cut, and the cut and the log's
// directory entry are fsynced before the writer reopens: a batch this
// process refused or displaced must never resurrect, and the failed
// path may have created the log without its entry reaching disk. A cold
// open cuts only bytes that do not verify, which no recovery replays,
// and syncs nothing but a log it creates (openWalWriter).
//
// On a cold open the replayed batches also fill the tail ring. Caller
// holds compactMu and commitMu, or the store is not yet shared.
func (db *DB) rebuildLocked(limit uint64) (st committed, beyond []Batch, err error) {
	cold := limit == noLimit
	db.walMutGen.Add(1)
	defer db.walMutGen.Add(1)
	if db.wal != nil {
		_ = db.wal.close() // suspect or superseded either way
		db.wal = nil
	}

	snap, snapSeq, snapDigest, err := loadSnapshot(db.opts.Dir)
	if err != nil {
		if !cold && errors.Is(err, ErrCorrupt) {
			// Not an append-state problem: durable bytes are provably
			// damaged, which no replay of the log cures. The live store
			// switches to the corrupt state and its quarantine + restore
			// path.
			err = db.markCorrupt(UnitSnapshotBlock, err)
		}
		return st, nil, err
	}
	st = committed{root: snap.begin(), seq: snapSeq, digest: snapDigest, snapSeq: snapSeq, snapDigest: snapDigest}
	var keep int64
	_, err = scanWalFrames(db.walPath(), func(b Batch, payload []byte, end int64) error {
		switch {
		case b.Seq > limit:
			beyond = append(beyond, b)
			return nil // frames are contiguous: every later one is beyond too
		case b.Seq > snapSeq: // else already contained in the snapshot
			st.root.apply(b.Ops)
			if cold && db.recent != nil {
				db.recent.push(b, st.digest)
			}
			st.digest = chainStep(st.digest, payload)
			st.seq = b.Seq
			st.pending++
		}
		keep = end
		return nil
	})
	if err != nil {
		return st, nil, err
	}
	if !cold && st.seq != limit {
		return st, nil, fmt.Errorf("%w: log rebuilds seq %d, want %d", ErrCorrupt, st.seq, limit)
	}

	if info, serr := os.Stat(db.walPath()); serr == nil && info.Size() > keep {
		if err := os.Truncate(db.walPath(), keep); err != nil {
			return st, nil, fmt.Errorf("cut wal: %w", err)
		}
		if !cold {
			f, err := os.OpenFile(db.walPath(), os.O_WRONLY, 0)
			if err != nil {
				return st, nil, err
			}
			err = fsSync(f, "wal")
			f.Close()
			if err != nil {
				return st, nil, fmt.Errorf("sync wal cut: %w", err)
			}
		}
	}
	w, err := openWalWriter(db.walPath(), db.opts.SyncWrites)
	if err != nil {
		return st, nil, err
	}
	if !cold {
		if err := fsSyncDir(db.opts.Dir); err != nil {
			_ = w.close()
			return st, nil, fmt.Errorf("sync dir: %w", err)
		}
	}
	db.wal = w
	return st, beyond, nil
}

// installLocked replaces the committed state wholesale: root, sequence,
// staging, snapshot anchor, epoch (re-read from the tree), compaction
// debt, the ring and the chain position. The store's own history
// (rebuildLocked) keeps the ring's batches up to st.seq — later ones
// were never acknowledged, or were displaced, and must not be served to
// replicas — and, its log proven and reopened, leaves a failure behind.
// A foreign state drops the ring, which describes the history it
// replaces, and leaves the corruption behind: the store now holds
// freshly verified bytes. Either way the apply hook hears an op-less
// batch: the state may have changed under every key. Caller holds
// commitMu but not writeMu, or the store is not yet shared.
func (db *DB) installLocked(st committed) {
	db.writeMu.Lock()
	db.current.Store(&st.root)
	db.seq.Store(st.seq)
	db.staged, db.stageSeq = st.root, st.seq
	db.writeMu.Unlock()
	db.snapSeq.Store(st.snapSeq)
	db.snapDigest.Store(st.snapDigest)
	db.epoch.Store(epochFromTree(st.root))
	db.pending = st.pending

	db.replMu.Lock()
	if db.recent != nil {
		if st.foreign {
			db.recent = newBatchRing(len(db.recent.buf))
		} else {
			db.recent.truncateTo(st.seq)
		}
	}
	db.chainSeq = st.seq
	db.chainDigest.Store(st.digest)
	db.replMu.Unlock()

	db.amendFault(func(f *fault) {
		if st.foreign {
			f.corruption, f.unit, f.quarantined = nil, "", false
		} else {
			f.failure = nil
		}
	})
	db.fireApplyHook(Batch{Seq: st.seq})
}

// Reopen recovers a database from the sticky failed state: it closes
// the suspect WAL handle and rebuilds from the snapshot and the log up
// to the last acknowledged sequence, cutting any unacknowledged tail
// (rebuildLocked). It verifies that every acknowledged batch is still
// durable — if the log cannot prove that, the database stays failed and
// the error says why. Reopen on a healthy database is a no-op.
func (db *DB) Reopen() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.Corrupt() {
		// Reopen proves the log's append state; it cannot make provably
		// damaged bytes right. Only quarantine + restore clears corrupt.
		return db.faultErr()
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.closed.Load() {
		return ErrClosed
	}
	if !db.Failed() {
		return nil
	}

	var st committed
	if db.opts.Dir != "" {
		var err error
		if st, _, err = db.rebuildLocked(db.seq.Load()); err != nil {
			return fmt.Errorf("storedb: reopen: %w", err)
		}
	} else {
		// An in-memory store has no log to repair: it resumes from the
		// last published root.
		st = committed{root: *db.current.Load(), seq: db.seq.Load(), digest: db.chainDigest.Load(),
			snapSeq: db.snapSeq.Load(), snapDigest: db.snapDigest.Load()}
	}
	db.installLocked(st)
	db.reopens.Add(1)
	return nil
}

// TruncateTail discards every committed batch with Seq > to, rewinding
// the database to an exact earlier point of its own history. It is the
// repair half of divergence recovery: a replica that finds its tail
// forked from the new primary's chain truncates to the last common
// prefix and resumes pulling from there. The discarded batches are
// returned so the caller can quarantine them rather than lose them
// silently. Only durable databases can truncate (the prefix is rebuilt
// from the snapshot plus WAL, by rebuildLocked); in-memory stores and
// positions below the compaction floor return ErrCompacted, directing
// the caller to a full snapshot bootstrap instead.
func (db *DB) TruncateTail(to uint64) ([]Batch, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := db.faultErr(); err != nil {
		return nil, err
	}
	cur := db.seq.Load()
	if to == cur {
		return nil, nil
	}
	if to > cur {
		return nil, fmt.Errorf("storedb: truncate tail to %d beyond committed seq %d", to, cur)
	}
	if db.opts.Dir == "" || to < db.snapSeq.Load() {
		return nil, ErrCompacted
	}

	// The store was healthy, so everything the log holds past to was
	// acknowledged: the displaced tail, whole.
	st, removed, err := db.rebuildLocked(to)
	if errors.Is(err, ErrStorageCorrupt) {
		return nil, err // the snapshot, not the log: already marked
	}
	if err != nil {
		return nil, db.fail(fmt.Errorf("storedb: truncate tail: %w", err))
	}
	db.installLocked(st)
	return removed, nil
}

// RestoreSnapshotFrom replaces the database's entire state with the
// snapshot stream read from r (every checksum verified before anything
// is installed) and returns the restored sequence number. On a durable
// database the snapshot is persisted and the WAL restarted, so a crash
// right after bootstrap recovers to the restored state. The tail ring
// is dropped, so cascading replicas re-sync from the new position, and
// the digest chain restarts from the stream's anchor. It is also the
// recovery path from the sticky corrupt state — but only after
// QuarantineCorrupt has moved the damaged files aside; until then it
// refuses with ErrQuarantineRequired so the corruption evidence is
// never overwritten.
func (db *DB) RestoreSnapshotFrom(r io.Reader) (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.checkRestoreAllowed(); err != nil {
		return 0, err // cheap pre-check before decoding the stream
	}
	t, seq, digest, err := decodeSnapshot(r, -1)
	if err != nil {
		return 0, err
	}

	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.checkRestoreAllowed(); err != nil {
		return 0, err
	}
	if f := db.fault.Load(); f != nil && f.corruption == nil {
		return 0, failedErr(f.failure)
	}
	if db.opts.Dir != "" {
		if err := writeSnapshot(db.opts.Dir, t, seq, digest); err != nil {
			return 0, db.fail(err)
		}
		if err := db.resetWalLocked(); err != nil {
			return 0, db.fail(err)
		}
	}
	db.installLocked(committed{root: t, seq: seq, digest: digest, snapSeq: seq, snapDigest: digest, foreign: true})
	return seq, nil
}

// checkRestoreAllowed gates RestoreSnapshotFrom on the corrupt state:
// a corrupt store may only be restored after its damaged files were
// quarantined.
func (db *DB) checkRestoreAllowed() error {
	if f := db.fault.Load(); f != nil && f.corruption != nil && !f.quarantined {
		return ErrQuarantineRequired
	}
	return nil
}
