package storedb

import "fmt"

// What the store refuses and why, and what it counts: the role bits,
// the sticky storage fault, their one reading (WriteRefusal), and the
// health counters operators and tests read.

// The bits of DB.role. Both refuse local writes; neither touches reads,
// ApplyBatch or snapshot restore.
const (
	roleReplica uint32 = 1 << iota // changes arrive via ApplyBatch only
	roleFenced                     // sticky: a higher epoch was observed
)

// setRole sets or clears one bit of DB.role.
func (db *DB) setRole(bit uint32, on bool) {
	for {
		old := db.role.Load()
		next := old &^ bit
		if on {
			next |= bit
		}
		if db.role.CompareAndSwap(old, next) {
			return
		}
	}
}

// fault is the store's sticky storage fault. The two states are
// independent and can hold together: failure is cured by Reopen,
// corruption only by QuarantineCorrupt plus RestoreSnapshotFrom. A
// *fault is immutable once published; amendFault replaces it.
type fault struct {
	failure     error  // first error that made the log unwritable
	corruption  error  // first checksum mismatch
	unit        string // what failed the checksum: UnitSnapshotHeader, UnitSnapshotBlock, UnitWALFrame
	quarantined bool   // corrupt files moved aside; RestoreSnapshotFrom may proceed
}

// amendFault replaces the sticky fault by what change makes of it, by
// nil once neither state holds, and returns what it published.
func (db *DB) amendFault(change func(f *fault)) *fault {
	for {
		old := db.fault.Load()
		var f fault
		if old != nil {
			f = *old
		}
		change(&f)
		next := &f
		if f.failure == nil && f.corruption == nil {
			next = nil
		}
		if db.fault.CompareAndSwap(old, next) {
			return next
		}
	}
}

// WriteRefusal returns why the store refuses writes right now, or nil
// when it accepts them. The order is the precedence when several
// states hold, for the store and for the server in front of it: a
// closed store says so whatever else is wrong, a role refusal (replica,
// fenced) outranks a storage one.
func (db *DB) WriteRefusal() error {
	role := db.role.Load()
	switch {
	case db.closed.Load():
		return ErrClosed
	case role&roleReplica != 0:
		return ErrReplica
	case role&roleFenced != 0:
		return ErrFenced
	}
	return db.faultErr()
}

// faultErr is the storage half of WriteRefusal, all that gates the
// paths a role does not (ApplyBatch, maintenance): corruption outranks
// a plain failure because Reopen cannot cure it. The error carries the
// first cause.
func (db *DB) faultErr() error {
	switch f := db.fault.Load(); {
	case f == nil:
		return nil
	case f.corruption != nil:
		return corruptErr(f.corruption)
	default:
		return failedErr(f.failure)
	}
}

// failedErr and corruptErr annotate the sticky refusals with their
// first cause.
func failedErr(cause error) error  { return fmt.Errorf("%w: %v", ErrStorageFailed, cause) }
func corruptErr(cause error) error { return fmt.Errorf("%w: %v", ErrStorageCorrupt, cause) }

// fail records the first cause and moves the database into the sticky
// failed state: every subsequent write returns ErrStorageFailed until
// Reopen succeeds. Reads are unaffected. It returns that refusal.
func (db *DB) fail(cause error) error {
	return failedErr(db.amendFault(func(f *fault) {
		if f.failure == nil {
			f.failure = cause
		}
	}).failure)
}

// markCorrupt records the first checksum mismatch and moves the
// database into the sticky corrupt state: writes return
// ErrStorageCorrupt until the damaged files are quarantined and the
// state restored from a verified source. Reads keep serving the
// in-memory tree, which predates the corruption by construction — it
// was built from bytes that verified when they were read. It returns
// that refusal.
func (db *DB) markCorrupt(unit string, cause error) error {
	db.corruptions.Add(1)
	return corruptErr(db.amendFault(func(f *fault) {
		if f.corruption == nil {
			f.corruption, f.unit = cause, unit
		}
	}).corruption)
}

// Failed reports whether the database is in the sticky failed
// (read-only) state — a single atomic load.
func (db *DB) Failed() bool { f := db.fault.Load(); return f != nil && f.failure != nil }

// Corrupt reports whether the database is in the sticky corrupt
// (read-only) state — a single atomic load.
func (db *DB) Corrupt() bool { f := db.fault.Load(); return f != nil && f.corruption != nil }

// StorageHealth describes the write pipeline's state for health
// endpoints and operators.
type StorageHealth struct {
	// Failed reports the sticky failed (read-only) state.
	Failed bool
	// Cause is the first error that failed the store; empty when healthy.
	Cause string
	// Reopens counts successful Reopen recoveries.
	Reopens uint64
	// Groups counts commit groups flushed; Batches the batches they
	// carried. Batches/Groups is the mean group-commit depth.
	Groups uint64
	// Batches counts batches made durable.
	Batches uint64
	// Fsyncs counts WAL fsyncs issued; Fsyncs/Batches is the amortized
	// fsync cost per write.
	Fsyncs uint64
	// WALBytes counts bytes appended durably to the WAL since open.
	WALBytes uint64

	// Corrupt reports the sticky corrupt (read-only) state: a checksum
	// verification found durable bytes that are provably wrong.
	Corrupt bool
	// CorruptCause is the first checksum mismatch; empty when clean.
	CorruptCause string
	// CorruptUnit names what failed: "snapshot-header",
	// "snapshot-block", or "wal-frame". Empty when clean.
	CorruptUnit string
	// Compactions counts completed snapshot+truncate cycles.
	Compactions uint64
	// CompactorLag is how many committed batches the newest snapshot
	// trails the log by — the work the background compactor still owes.
	CompactorLag uint64
	// ScrubRuns counts completed scrub passes; ScrubBlocks the
	// cumulative blocks they verified.
	ScrubRuns   uint64
	ScrubBlocks uint64
	// Corruptions counts checksum mismatches detected by scrub or any
	// read path since open.
	Corruptions uint64
	// LastScrubUnix is the completion time of the newest scrub pass in
	// unix seconds; zero when no pass has completed.
	LastScrubUnix int64
}

// Health returns a snapshot of the storage health counters.
func (db *DB) Health() StorageHealth {
	h := StorageHealth{
		Reopens:       db.reopens.Load(),
		Groups:        db.walGroups.Load(),
		Batches:       db.walBatches.Load(),
		Fsyncs:        db.walFsyncs.Load(),
		WALBytes:      db.walBytes.Load(),
		Compactions:   db.compactions.Load(),
		CompactorLag:  db.CompactorLag(),
		ScrubRuns:     db.scrubRuns.Load(),
		ScrubBlocks:   db.scrubBlocks.Load(),
		Corruptions:   db.corruptions.Load(),
		LastScrubUnix: db.lastScrub.Load(),
	}
	if f := db.fault.Load(); f != nil {
		if f.failure != nil {
			h.Failed, h.Cause = true, f.failure.Error()
		}
		if f.corruption != nil {
			h.Corrupt, h.CorruptCause, h.CorruptUnit = true, f.corruption.Error(), f.unit
		}
	}
	return h
}

// CompactorLag returns how many committed batches the newest snapshot
// trails the durable log by. Pure atomics; safe from any goroutine.
func (db *DB) CompactorLag() uint64 {
	seq, snap := db.seq.Load(), db.snapSeq.Load()
	if seq <= snap {
		return 0
	}
	return seq - snap
}

// UpdateCount returns the number of local Update transactions that have
// committed a batch since the database was opened. Empty Updates and
// replicated ApplyBatch commits do not count. Tests use this together
// with Seq() to assert that a code path is write-free.
func (db *DB) UpdateCount() uint64 { return db.updates.Load() }

// WriteAttempts returns the number of Update transactions begun,
// committed or not. Every one serialised on the write lock, so the
// delta measures write-lock traffic even when the transaction turned
// out to be an empty no-op — the cost the lookup fast path exists to
// avoid.
func (db *DB) WriteAttempts() uint64 { return db.attempts.Load() }

// ViewCount returns the number of View transactions begun. Like
// WriteAttempts it exists for tests: the delta across a code path says
// how many snapshots of the tree that path read, and a path that must
// be consistent with itself reads exactly one.
func (db *DB) ViewCount() uint64 { return db.views.Load() }
