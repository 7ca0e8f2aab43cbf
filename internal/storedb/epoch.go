package storedb

import (
	"encoding/binary"
)

// Promotion epochs. Every database carries a monotonic epoch number —
// the count of primary promotions in its history — persisted as an
// ordinary key inside the replicated keyspace, so it rides the WAL, the
// snapshot, and the replication stream with no side channel: a replica
// that catches up has, by construction, learned the epoch under which
// its history was written.
//
// BumpEpoch is the promotion barrier: it durably commits epoch+1
// (fsyncing even on stores opened without SyncWrites) before the caller
// may open the node for writes. A node that observes a higher epoch
// than its own — from a replication peer or from a client header — is
// stale: Fence moves it into a sticky read-only state analogous to
// ErrStorageFailed, closing the split-brain window in which an isolated
// old primary keeps acking writes that can never win.

// EpochBucket is the reserved bucket holding store-level metadata such
// as the promotion epoch. The leading '!' keeps it out of the
// single-letter namespace the application schema uses; application code
// must not write to it.
const EpochBucket = "!meta"

// epochRecord is the full tree key (bucket prefix included) of the
// record holding the big-endian epoch value.
const epochRecord = EpochBucket + "\x00epoch"

// epochKey returns epochRecord as a key the tree may keep.
func epochKey() []byte { return []byte(epochRecord) }

// epochFromTree reads the persisted epoch out of a tree; a missing or
// malformed record is epoch 0 (never promoted).
func epochFromTree(t tree) uint64 {
	v, ok := t.Get(epochKey())
	if !ok || len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// Epoch returns the database's promotion epoch: the highest epoch bump
// contained in its committed history.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Fenced reports whether the database is in the sticky fenced
// (read-only) state — a single atomic load.
func (db *DB) Fenced() bool { return db.role.Load()&roleFenced != 0 }

// Fence moves the database into the sticky fenced state: every Update
// returns ErrFenced until BumpEpoch or Unfence. Reads, ApplyBatch, and
// snapshot restore are unaffected — a fenced node can still serve
// lookups and rejoin as a replica.
func (db *DB) Fence() { db.setRole(roleFenced, true) }

// Unfence clears the fenced state without changing the epoch. The
// demotion path uses it once the node has been put back into replica
// mode, where ErrReplica gates writes instead.
func (db *DB) Unfence() { db.setRole(roleFenced, false) }

// BumpEpoch durably commits epoch+1 and returns the new value. It is
// the first step of promotion and deliberately works in replica mode
// (the node is still a replica while the bump commits) and in the
// fenced state (taking over at a yet-higher epoch is exactly how a
// fenced node becomes authoritative again — the bump unfences). It does
// not work on a store whose storage is at fault: a corrupt log must not
// take the bump, and a quarantined one cannot. The commit is fsynced
// even when the store was opened without SyncWrites: a promotion that
// could be lost to a crash would let the node restart at its old epoch
// and accept conflicting history.
func (db *DB) BumpEpoch() (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.faultErr(); err != nil {
		return 0, err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.closed.Load() {
		return 0, ErrClosed
	}

	next := db.epoch.Load() + 1
	b := Batch{Seq: db.seq.Load() + 1, Ops: []Op{{Key: epochKey(), Val: binary.BigEndian.AppendUint64(nil, next)}}}
	t := db.current.Load().begin()
	t.apply(b.Ops)
	if err := db.commitLocked([]Batch{b}, &t, true); err != nil {
		return 0, err
	}
	db.Unfence()
	return next, nil
}
