package storedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
)

// History digest chain. Every committed batch extends a running 64-bit
// hash: digest(n) = H(digest(n-1) || payload(n)), where payload is the
// batch's deterministic WAL encoding. Two databases that hold the same
// digest at the same sequence number therefore hold byte-identical
// committed histories up to it — which is exactly what a replica needs
// to prove before resuming a WAL tail after a partition. The chain is
// anchored in the snapshot file (digest at the snapshot's sequence) so
// it survives compaction and restarts, and the replication frame format
// carries each batch's predecessor digest so divergence is detected
// before a foreign batch is applied onto a forked prefix.

// chainStep folds one batch payload into the running history digest.
// FNV-1a/64: not cryptographic, but the adversary here is a network
// partition, not a forger, and the CRC-framed transport already rejects
// corruption.
func chainStep(prev uint64, payload []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], prev)
	h.Write(b[:])
	h.Write(payload)
	return h.Sum64()
}

// ChainDigest returns the history digest at the last committed
// sequence number.
func (db *DB) ChainDigest() uint64 { return db.chainDigest.Load() }

// ChainPosition returns a consistent (seq, digest) pair: the digest is
// the chain value at exactly the returned sequence. Seq() and
// ChainDigest() read the same values but can interleave with a commit;
// replication headers use this so a replica never compares its digest
// against a mismatched sequence.
func (db *DB) ChainPosition() (seq, digest uint64) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.chainSeq, db.chainDigest.Load()
}

// DigestAt returns the history digest at the given sequence number, if
// the database can still derive it: from the current position, the
// in-memory tail ring, the snapshot anchor, or by chaining over the
// on-disk WAL. ok is false when the position predates what is retained.
func (db *DB) DigestAt(seq uint64) (digest uint64, ok bool) {
	if db.closed.Load() {
		return 0, false
	}
	db.replMu.Lock()
	if seq == db.chainSeq {
		d := db.chainDigest.Load()
		db.replMu.Unlock()
		return d, true
	}
	if db.recent != nil {
		if d, found := db.recent.digestAt(seq); found {
			db.replMu.Unlock()
			return d, true
		}
	}
	db.replMu.Unlock()
	snapSeq := db.snapSeq.Load()
	if seq == snapSeq {
		return db.snapDigest.Load(), true
	}
	if db.opts.Dir == "" || seq < snapSeq || seq > db.seq.Load() {
		return 0, false
	}
	d := db.snapDigest.Load()
	found := false
	_, _, err := scanWal(db.walPath(), func(b walBatch) error {
		if b.seq <= snapSeq {
			return nil
		}
		d = chainStep(d, b.encode())
		if b.seq == seq {
			found = true
			return errScanDone
		}
		return nil
	})
	if err != nil && err != errScanDone {
		return 0, false
	}
	return d, found
}

// SinceWithDigest is Since with each batch's predecessor digest: fn
// receives the chain value at b.Seq-1 alongside the batch, which is
// what a replication frame carries so the replica can verify its local
// chain before applying. The same ErrCompacted contract applies.
func (db *DB) SinceWithDigest(from uint64, max int, fn func(b Batch, prev uint64) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if from >= db.Seq() {
		return nil
	}

	db.replMu.Lock()
	ring := db.recent
	var ok bool
	var err error
	if ring != nil {
		ok, err = ring.sinceWithPrev(from, max, fn)
	}
	db.replMu.Unlock()
	if ok {
		return err
	}

	snapSeq := db.snapSeq.Load()
	if db.opts.Dir == "" || from < snapSeq {
		return ErrCompacted
	}
	genBefore := db.walMutGen.Load()
	durable := db.seq.Load()
	prev := db.snapDigest.Load()
	count := 0
	last, _, err := scanWal(db.walPath(), func(b walBatch) error {
		if b.seq <= snapSeq {
			return nil
		}
		payload := b.encode()
		if b.seq <= from {
			prev = chainStep(prev, payload)
			return nil
		}
		if max > 0 && count >= max {
			return errScanDone
		}
		count++
		if err := fn(exportBatch(b), prev); err != nil {
			return err
		}
		prev = chainStep(prev, payload)
		return nil
	})
	if err == errScanDone {
		return nil
	}
	if err != nil {
		return err
	}
	if cerr := db.noteWalScanShort(last, durable, genBefore); cerr != nil {
		return cerr
	}
	return nil
}

// TruncateTail discards every committed batch with Seq > to, rewinding
// the database to an exact earlier point of its own history. It is the
// repair half of divergence recovery: a replica that finds its tail
// forked from the new primary's chain truncates to the last common
// prefix and resumes pulling from there. The discarded batches are
// returned so the caller can quarantine them rather than lose them
// silently. Only durable databases can truncate (the prefix is rebuilt
// from the snapshot plus WAL, with the same frame-boundary cut and
// fsync discipline as Reopen); in-memory stores and positions below the
// compaction floor return ErrCompacted, directing the caller to a full
// snapshot bootstrap instead.
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

	db.walMutGen.Add(1)
	defer db.walMutGen.Add(1)
	if db.wal != nil {
		_ = db.wal.close()
		db.wal = nil
	}
	snap, snapSeq, snapDigest, err := loadSnapshot(db.opts.Dir)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, db.markCorrupt(UnitSnapshotBlock, err)
		}
		return nil, db.fail(err)
	}
	t := snap.begin()
	digest := snapDigest
	last := snapSeq
	var keep int64
	replayed := 0
	var removed []Batch
	_, _, err = scanWalFrames(db.walPath(), func(b walBatch, end int64) error {
		if b.seq <= snapSeq {
			keep = end
			return nil
		}
		if b.seq > to {
			if b.seq <= cur {
				removed = append(removed, exportBatch(b))
			}
			return nil
		}
		t.apply(b.ops)
		digest = chainStep(digest, b.encode())
		replayed++
		last = b.seq
		keep = end
		return nil
	})
	if err != nil {
		return nil, db.fail(err)
	}
	if last != to {
		return nil, db.fail(fmt.Errorf("%w: truncate tail rebuilt seq %d, want %d", ErrCorrupt, last, to))
	}

	// Cut at the exact frame boundary and make the cut durable, exactly
	// as Reopen does: a truncated batch must never resurrect.
	if info, serr := os.Stat(db.walPath()); serr == nil && info.Size() > keep {
		if terr := os.Truncate(db.walPath(), keep); terr != nil {
			return nil, db.fail(fmt.Errorf("storedb: truncate tail: %w", terr))
		}
		f, oerr := os.OpenFile(db.walPath(), os.O_WRONLY, 0)
		if oerr != nil {
			return nil, db.fail(fmt.Errorf("storedb: truncate tail: %w", oerr))
		}
		serr := fsSync(f, "wal")
		f.Close()
		if serr != nil {
			return nil, db.fail(fmt.Errorf("storedb: truncate tail sync: %w", serr))
		}
	}
	w, err := openWalWriter(db.walPath(), db.opts.SyncWrites)
	if err != nil {
		return nil, db.fail(err)
	}
	if err := fsSyncDir(db.opts.Dir); err != nil {
		_ = w.close()
		return nil, db.fail(fmt.Errorf("storedb: truncate tail sync dir: %w", err))
	}
	db.wal = w

	db.writeMu.Lock()
	db.current.Store(&t)
	db.seq.Store(to)
	db.staged = t
	db.stageSeq = to
	db.writeMu.Unlock()
	db.snapSeq.Store(snapSeq)
	db.snapDigest.Store(snapDigest)
	db.pending = replayed
	db.epoch.Store(epochFromTree(t))

	db.replMu.Lock()
	if db.recent != nil {
		db.recent.truncateTo(to)
	}
	db.chainSeq = to
	db.chainDigest.Store(digest)
	db.replMu.Unlock()
	// An op-less batch tells the apply hook the state may have changed
	// wholesale (keys the truncated batches wrote are gone again).
	db.fireApplyHook(Batch{Seq: to})
	return removed, nil
}
