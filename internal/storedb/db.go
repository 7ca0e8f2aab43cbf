// Package storedb implements the embedded, transactional key-value store
// that backs the reputation server's database.
//
// The design is a single-writer, multi-reader store built from three
// pieces:
//
//   - a copy-on-write B+tree as the in-memory index, in which a writer
//     copies a node once and then owns the copy (btree.go), giving read
//     transactions free snapshot isolation;
//   - a write-ahead log of framed, checksummed batches for durability;
//   - periodic snapshot files that allow the log to be truncated and
//     bound recovery time.
//
// Write transactions (Update) stage their changes against a shared
// copy-on-write staging root under a short mutex, then commit through a
// group-commit pipeline: concurrent committers join an open commit
// group, one of them becomes the leader, and a single WAL write plus a
// single fsync makes the whole group durable before every member is
// released. Read transactions (View) pin whatever root was last made
// durable and never block.
//
// Storage failures are fail-safe: any WAL append, fsync, or compaction
// error moves the database into a sticky failed state in which every
// write returns ErrStorageFailed while reads keep serving the last
// committed tree. Reopen replays and verifies the durable state and is
// the only way back to writable. Silent corruption — bytes that read
// back cleanly but fail a checksum — is a separate sticky state:
// every snapshot block and WAL frame is CRC-checked on read, an online
// scrubber (Options.ScrubEvery, Scrub) verifies them proactively, and a
// mismatch moves the database to ErrStorageCorrupt, from which the only
// way back is QuarantineCorrupt plus RestoreSnapshotFrom with a healthy
// replacement (replication.Repairer drives that from a replica).
//
// Automatic compaction runs on a background goroutine: commits only
// signal the compactor, so the fsync-heavy snapshot write never stalls
// the group-commit pipeline. The compactor snapshots outside commitMu
// and swaps the WAL tail under it in a brief second phase.
//
// Keys live in named buckets; a bucket is a key prefix managed by the
// store so that independently-developed tables cannot collide.
package storedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures Open.
type Options struct {
	// Dir is the directory holding the snapshot and WAL files. It is
	// created if missing. An empty Dir opens a purely in-memory store
	// with no durability, which simulations and tests use.
	Dir string

	// SyncWrites makes every commit fsync the WAL before returning.
	// When false the OS decides when log pages reach disk; a machine
	// crash may lose the most recent commits but never corrupts the
	// store.
	SyncWrites bool

	// CompactEvery triggers an automatic snapshot + log truncation after
	// this many committed batches. Zero selects a default; negative
	// disables automatic compaction.
	CompactEvery int

	// ReplLogBuffer sizes the in-memory ring of recent committed batches
	// kept for replication tailing (Since). Zero selects a default;
	// negative disables the ring, forcing Since onto the on-disk WAL.
	ReplLogBuffer int

	// ScrubEvery starts an online scrubber goroutine that verifies
	// every snapshot block checksum and the WAL history digest chain at
	// this interval. Zero disables background scrubbing; Scrub remains
	// available for on-demand passes.
	ScrubEvery time.Duration
}

const (
	defaultCompactEvery  = 4096
	defaultReplLogBuffer = 1024
)

// DB is an embedded key-value database. It is safe for concurrent use.
//
// Lock order: compactMu before commitMu before writeMu, never the
// reverse. Staging (running a transaction's fn, joining a commit group)
// takes writeMu alone; flushing a group to the WAL, publishing, and
// recovery take commitMu and may briefly nest writeMu inside it.
// Maintenance that rewrites whole files — compaction, scrub-and-repair,
// restore, tail truncation — serializes on compactMu first, so the
// background compactor and an operator-invoked Compact or Scrub never
// interleave their multi-step file rewrites.
type DB struct {
	opts Options

	current atomic.Pointer[tree] // durable root, swapped on group flush

	writeMu   sync.Mutex // guards staging: staged, stageSeq, openGroup
	staged    tree       // root including staged-but-not-yet-durable batches
	stageSeq  uint64     // sequence of the newest staged batch
	openGroup *commitGroup

	commitMu sync.Mutex // guards wal, pending, publication, compaction
	wal      *walWriter
	pending  int // batches since last compaction

	// compactMu serializes whole-file maintenance: background and
	// manual compaction, scrub, restore, quarantine, tail truncation.
	// It is taken before commitMu and held across both compaction
	// phases, so the expensive snapshot write happens with commits
	// still flowing.
	compactMu sync.Mutex

	// walMutGen is a seqlock generation for the WAL file set: odd while
	// a maintenance path is mutating WAL files (reset, tail swap,
	// truncate), bumped even when done. Lock-free readers that scan the
	// WAL (Since fallback, scrub) read it before and after: a stable
	// even value proves the scan saw a quiescent file, so a short or
	// failed scan is evidence of corruption rather than of racing a
	// swap.
	walMutGen atomic.Uint64

	compactKick chan struct{}  // signaled (non-blocking) when pending crosses the threshold
	bgStop      chan struct{}  // closed by Close to stop background goroutines
	bg          sync.WaitGroup // compactor + scrubber goroutines

	seq     atomic.Uint64 // last durable batch sequence
	snapSeq atomic.Uint64 // sequence covered by the newest snapshot

	epoch       atomic.Uint64 // promotion epoch contained in committed history
	chainDigest atomic.Uint64 // history digest at chainSeq
	snapDigest  atomic.Uint64 // history digest anchored at snapSeq

	// Why the store refuses writes, beyond being closed: role holds the
	// roleReplica and roleFenced bits, fault is nil while storage is
	// healthy. WriteRefusal is the one reading of the three.
	role  atomic.Uint32
	fault atomic.Pointer[fault]

	compactions atomic.Uint64 // snapshot+truncate cycles completed
	scrubRuns   atomic.Uint64 // scrub passes completed (clean or not)
	scrubBlocks atomic.Uint64 // blocks whose checksums scrub has verified, cumulative
	corruptions atomic.Uint64 // checksum mismatches detected (scrub or read path)
	lastScrub   atomic.Int64  // unix seconds of the last completed scrub pass

	updates  atomic.Uint64 // committed local Update transactions
	attempts atomic.Uint64 // Update transactions begun (write-lock acquisitions)
	views    atomic.Uint64 // View transactions begun

	walGroups  atomic.Uint64 // commit groups flushed
	walBatches atomic.Uint64 // batches flushed across all groups
	walFsyncs  atomic.Uint64 // WAL fsyncs issued
	walBytes   atomic.Uint64 // bytes appended durably to the WAL
	reopens    atomic.Uint64 // successful Reopen recoveries

	replMu   sync.Mutex // guards recent, chainSeq
	recent   *batchRing // tail of committed batches for replication
	chainSeq uint64     // sequence the chain digest is at (== seq once commits settle)

	applyMu   sync.Mutex // guards applyHook
	applyHook func(Batch)

	closed atomic.Bool
}

// commitGroup collects the batches of concurrent Update callers so one
// WAL write and one fsync can cover them all. The caller that creates
// the group is its leader: it flushes the group under commitMu while
// later committers keep staging the next group. Waiters wait on done
// and read err afterwards. A group is one allocation: its first batches
// live in it and, once it is flushed, so does the published root.
type commitGroup struct {
	batches  []walBatch
	lastTree tree   // staging root after the newest member
	lastSeq  uint64 // sequence of the newest member
	flushed  bool   // guarded by commitMu
	err      error  // set before done is released
	done     sync.WaitGroup
	first    [4]walBatch // backs batches until a fifth member joins
}

// newCommitGroup returns an empty group whose flush its creator owes.
func newCommitGroup() *commitGroup {
	g := &commitGroup{}
	g.batches = g.first[:0]
	g.done.Add(1)
	return g
}

// add makes tx the group's newest member. Caller holds writeMu, or the
// group is not yet shared.
func (g *commitGroup) add(tx *Tx) {
	g.batches = append(g.batches, walBatch{seq: tx.seq, ops: tx.ops})
	g.lastTree = tx.tree
	g.lastSeq = tx.seq
}

// Open opens or creates a database per the options. On disk, recovery
// loads the newest snapshot and replays WAL batches with later sequence
// numbers; a torn log tail is discarded.
func Open(opts Options) (*DB, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	if opts.ReplLogBuffer == 0 {
		opts.ReplLogBuffer = defaultReplLogBuffer
	}
	db := &DB{opts: opts}
	if opts.ReplLogBuffer > 0 {
		db.recent = newBatchRing(opts.ReplLogBuffer)
	}
	var t tree

	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
			return nil, fmt.Errorf("storedb: create dir: %w", err)
		}
		if err := removeOrphanTemps(opts.Dir); err != nil {
			return nil, err
		}
		snap, snapSeq, snapDigest, err := loadSnapshot(opts.Dir)
		if err != nil {
			return nil, err
		}
		t = snap.begin()
		db.seq.Store(snapSeq)
		db.snapSeq.Store(snapSeq)
		db.snapDigest.Store(snapDigest)
		digest := snapDigest
		lastSeq, err := replayWal(db.walPath(), func(b walBatch) error {
			if b.seq <= snapSeq {
				return nil // already contained in the snapshot
			}
			t.apply(b.ops)
			if db.recent != nil {
				db.recent.push(exportBatch(b), digest)
			}
			digest = chainStep(digest, b.encode())
			return nil
		})
		if err != nil {
			return nil, err
		}
		if lastSeq > db.seq.Load() {
			db.seq.Store(lastSeq)
		}
		db.chainDigest.Store(digest)
	}

	db.current.Store(&t)
	db.staged = t
	db.stageSeq = db.seq.Load()
	db.chainSeq = db.seq.Load()
	db.epoch.Store(epochFromTree(t))
	if opts.Dir != "" {
		w, err := openWalWriter(db.walPath(), opts.SyncWrites)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}

	if opts.Dir != "" {
		db.bgStop = make(chan struct{})
		if opts.CompactEvery > 0 {
			db.compactKick = make(chan struct{}, 1)
			db.bg.Add(1)
			go db.compactorLoop()
		}
		if opts.ScrubEvery > 0 {
			db.bg.Add(1)
			go db.scrubberLoop()
		}
	}
	return db, nil
}

// removeOrphanTemps deletes temporary files a crashed compaction left
// behind (snapshot temp, WAL swap file) and makes the removals durable.
// They are partial by construction — the crash happened before the
// rename that would have made them real — so deleting them is safe and
// keeps a dead compactor from leaking disk forever.
func removeOrphanTemps(dir string) error {
	removed := false
	for _, pat := range []string{"SNAPSHOT*.tmp", "snapshot*.tmp", "WAL.swap"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return fmt.Errorf("storedb: scan temp files: %w", err)
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("storedb: remove orphan %s: %w", filepath.Base(m), err)
			}
			removed = true
		}
	}
	if removed {
		if err := realSyncDir(dir); err != nil {
			return fmt.Errorf("storedb: sync dir after temp cleanup: %w", err)
		}
	}
	return nil
}

func (db *DB) walPath() string  { return filepath.Join(db.opts.Dir, "WAL") }
func (db *DB) swapPath() string { return filepath.Join(db.opts.Dir, "WAL.swap") }

// Close flushes any open commit group and releases the WAL file.
// Further use of the database returns ErrClosed. Background goroutines
// (compactor, scrubber) are stopped and joined before the WAL closes,
// so no maintenance runs against released files.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.bgStop != nil {
		close(db.bgStop)
		db.bg.Wait()
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// Len returns the number of keys currently committed, across all buckets.
func (db *DB) Len() int { return db.current.Load().Len() }

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

// View runs fn in a read-only transaction over a consistent snapshot.
func (db *DB) View(fn func(tx *Tx) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.views.Add(1)
	tx := &Tx{db: db, tree: *db.current.Load()}
	defer func() { tx.done = true }()
	return fn(tx)
}

// Update runs fn in a read-write transaction. If fn returns nil the
// transaction commits: its batch joins the open commit group, the group
// leader appends every member in one WAL write covered by one fsync,
// and the call returns once the batch is durable and published. If fn
// returns an error, nothing is changed. In-memory stores commit through
// the serialized path instead — with no log write or fsync to amortize,
// grouping is pure coordination overhead.
func (db *DB) Update(fn func(tx *Tx) error) error {
	if err := db.WriteRefusal(); err != nil {
		return err
	}
	if db.opts.Dir == "" {
		return db.updateSerialized(fn)
	}

	db.writeMu.Lock()
	tx, err := db.stageLocked(fn)
	if tx == nil {
		db.writeMu.Unlock()
		return err
	}
	g := db.openGroup
	leader := g == nil
	if leader {
		g = newCommitGroup()
		db.openGroup = g
	}
	g.add(tx)
	db.writeMu.Unlock()

	if leader {
		// Pipelining: while the previous leader's fsync is in flight
		// this blocks on commitMu, and every committer arriving
		// meanwhile piles into this group.
		db.commitMu.Lock()
		db.flushGroupLocked(g)
		db.commitMu.Unlock()
	}
	g.done.Wait()
	return g.err
}

// updateSerialized is the one-batch-per-flush write path of in-memory
// stores: the transaction stages and publishes alone, holding commitMu
// from staging through publication. With no log write or fsync to
// amortize, grouping would be pure coordination overhead.
func (db *DB) updateSerialized(fn func(tx *Tx) error) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.writeMu.Lock()
	tx, err := db.stageLocked(fn)
	db.writeMu.Unlock()
	if tx == nil {
		return err
	}
	g := newCommitGroup()
	g.add(tx)
	db.flushGroupLocked(g)
	return g.err
}

// stageLocked runs fn as the next write transaction and, if it wrote
// anything, advances the staging root past it. It returns the
// transaction to commit, or nil when there is none: the store refuses
// writes, fn failed, or fn only read. Caller holds writeMu.
func (db *DB) stageLocked(fn func(tx *Tx) error) (*Tx, error) {
	if err := db.WriteRefusal(); err != nil {
		return nil, err
	}
	db.attempts.Add(1)
	// fn runs against the staging root, not the durable one, so a
	// transaction observes every earlier staged commit it may end up
	// sharing a group with.
	tx := &Tx{db: db, tree: db.staged.begin(), writable: true, seq: db.stageSeq + 1}
	err := fn(tx)
	tx.done = true
	if err != nil || len(tx.ops) == 0 {
		return nil, err
	}
	db.staged = tx.tree
	db.stageSeq = tx.seq
	return tx, nil
}

// flushGroupLocked detaches g from staging, makes its batches durable
// with a single WAL write and fsync, publishes the newest root, and
// releases the waiters. Any storage error fails the whole group and
// moves the database to the sticky failed state. Caller holds commitMu
// but not writeMu.
func (db *DB) flushGroupLocked(g *commitGroup) {
	if g.flushed {
		return // another path (drain) beat this leader to it
	}
	g.flushed = true
	db.writeMu.Lock()
	if db.openGroup == g {
		db.openGroup = nil
	}
	db.writeMu.Unlock()
	defer g.done.Done()

	if g.err = db.faultErr(); g.err != nil {
		return
	}
	frames, err := db.logLocked(g.batches)
	if err != nil {
		g.err = err
		return
	}

	db.current.Store(&g.lastTree) // no member joins a group once it is detached
	db.seq.Store(g.lastSeq)
	db.updates.Add(uint64(len(g.batches)))
	db.noteCommits(g.batches, frames)

	db.pending += len(g.batches)
	db.maybeCompactLocked()
}

// logLocked encodes the batches once, as WAL frames, appends them to
// the log when the store has one (one write and, when syncing, one
// fsync for them all), and counts the group. The frames it returns, for
// noteCommits to chain over, are valid until the next append. A storage
// error moves the database to the sticky failed state. Caller holds
// commitMu.
func (db *DB) logLocked(batches []walBatch) ([]byte, error) {
	var frames []byte
	if db.wal == nil {
		frames = appendFrames(nil, batches)
	} else {
		var err error
		if frames, err = db.wal.appendGroup(batches); err != nil {
			return nil, db.fail(err)
		}
		db.walBytes.Add(uint64(len(frames)))
		if db.opts.SyncWrites {
			db.walFsyncs.Add(1)
		}
	}
	db.walGroups.Add(1)
	db.walBatches.Add(uint64(len(batches)))
	return frames, nil
}

// maybeCompactLocked signals the background compactor once enough
// batches have accumulated — a non-blocking channel send, so commits
// never pay for a snapshot write. Caller holds commitMu.
func (db *DB) maybeCompactLocked() {
	if db.compactKick == nil || db.pending < db.opts.CompactEvery {
		return
	}
	select {
	case db.compactKick <- struct{}{}:
	default: // a kick is already pending; the compactor will see current state
	}
}

// drainOpenGroupLocked flushes (or fails) the staged-but-unflushed
// commit group, if any, so the caller sees a quiesced commit pipeline.
// Caller holds commitMu but not writeMu.
func (db *DB) drainOpenGroupLocked() {
	db.writeMu.Lock()
	g := db.openGroup
	db.writeMu.Unlock()
	if g != nil {
		db.flushGroupLocked(g)
	}
}

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

// Reopen recovers a database from the sticky failed state: it closes
// the suspect WAL handle, reloads the snapshot, replays the log up to
// the last acknowledged sequence, cuts any unacknowledged tail, and
// reopens the log for appends. It verifies that every acknowledged
// batch is still durable — if the log cannot prove that, the database
// stays failed and the error says why. Reopen on a healthy database is
// a no-op.
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
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if !db.Failed() {
		return nil
	}

	if db.wal != nil {
		_ = db.wal.close()
		db.wal = nil
	}
	durable := db.seq.Load()

	if db.opts.Dir == "" {
		// In-memory store: there is no log to repair. Resume from the
		// last published root.
		db.recoverLocked(*db.current.Load(), durable, db.snapSeq.Load(), 0,
			db.chainDigest.Load(), db.snapDigest.Load())
		return nil
	}

	snap, snapSeq, snapDigest, err := loadSnapshot(db.opts.Dir)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			// Not an append-state problem: durable bytes are provably
			// damaged, so reopening cannot recover. Switch to the
			// corrupt state and its quarantine + restore path.
			return db.markCorrupt(UnitSnapshotBlock, err)
		}
		return fmt.Errorf("storedb: reopen: %w", err)
	}
	t := snap.begin()
	digest := snapDigest
	last := snapSeq
	var keep int64
	replayed := 0
	_, _, err = scanWalFrames(db.walPath(), func(b walBatch, end int64) error {
		if b.seq > durable {
			return errScanDone // unacknowledged tail: cut below
		}
		if b.seq > snapSeq {
			t.apply(b.ops)
			digest = chainStep(digest, b.encode())
			replayed++
		}
		if b.seq > last {
			last = b.seq
		}
		keep = end
		return nil
	})
	if err != nil && err != errScanDone {
		return fmt.Errorf("storedb: reopen: %w", err)
	}
	if last != durable {
		return fmt.Errorf("%w: reopen recovered seq %d, acknowledged %d", ErrCorrupt, last, durable)
	}

	// Cut everything past the last acknowledged frame and make the cut
	// durable, so a batch that failed mid-append can never resurrect.
	if info, serr := os.Stat(db.walPath()); serr == nil && info.Size() > keep {
		db.walMutGen.Add(1)
		defer db.walMutGen.Add(1)
		if terr := os.Truncate(db.walPath(), keep); terr != nil {
			return fmt.Errorf("storedb: reopen truncate: %w", terr)
		}
		f, oerr := os.OpenFile(db.walPath(), os.O_WRONLY, 0)
		if oerr != nil {
			return fmt.Errorf("storedb: reopen: %w", oerr)
		}
		serr := fsSync(f, "wal")
		f.Close()
		if serr != nil {
			return fmt.Errorf("storedb: reopen sync: %w", serr)
		}
	}
	w, err := openWalWriter(db.walPath(), db.opts.SyncWrites)
	if err != nil {
		return err
	}
	// The log may have been created by the failed path without its
	// directory entry ever reaching disk; sync unconditionally so the
	// recovered log is durable whatever state the failure left behind.
	if err := fsSyncDir(db.opts.Dir); err != nil {
		_ = w.close()
		return fmt.Errorf("storedb: reopen sync dir: %w", err)
	}
	db.wal = w
	db.recoverLocked(t, durable, snapSeq, replayed, digest, snapDigest)
	return nil
}

// recoverLocked installs the verified durable state and clears the
// failed flag. The tail ring is trimmed to the recovered sequence —
// batches past it were never acknowledged and must not be served to
// replicas — and the epoch is re-read from the recovered tree. Caller
// holds commitMu and writeMu.
func (db *DB) recoverLocked(t tree, seq, snapSeq uint64, pending int, digest, snapDigest uint64) {
	db.current.Store(&t)
	db.staged = t
	db.stageSeq = seq
	db.seq.Store(seq)
	db.snapSeq.Store(snapSeq)
	db.snapDigest.Store(snapDigest)
	db.epoch.Store(epochFromTree(t))
	db.pending = pending
	db.replMu.Lock()
	if db.recent != nil {
		db.recent.truncateTo(seq)
	}
	db.chainSeq = seq
	db.chainDigest.Store(digest)
	db.replMu.Unlock()
	db.amendFault(func(f *fault) { f.failure = nil })
	db.reopens.Add(1)
}

// Compact writes a snapshot of the current state and truncates the WAL.
func (db *DB) Compact() error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := db.faultErr(); err != nil {
		return err
	}
	if err := db.compactLocked(); err != nil {
		return db.fail(err)
	}
	return nil
}

// compactLocked writes a snapshot covering the durable root and starts
// a fresh log. Caller holds commitMu.
func (db *DB) compactLocked() error {
	if db.opts.Dir == "" {
		return nil // in-memory store: nothing to compact
	}
	seq := db.seq.Load()
	// Under commitMu the chain digest is settled at seq, so the pair is
	// consistent; it anchors the chain for post-compaction digest lookups.
	digest := db.chainDigest.Load()
	if err := writeSnapshot(db.opts.Dir, *db.current.Load(), seq, digest); err != nil {
		return err
	}
	// The snapshot now covers every committed batch; start a fresh log.
	if err := db.resetWalLocked(); err != nil {
		return err
	}
	db.snapSeq.Store(seq)
	db.snapDigest.Store(digest)
	db.compactions.Add(1)
	return nil
}

// resetWalLocked closes and deletes the WAL and opens a fresh log.
// openWalWriter's create-time directory sync makes both namespace
// changes durable together — a crash must not resurrect batches the
// snapshot already covers. Caller holds commitMu.
func (db *DB) resetWalLocked() error {
	db.walMutGen.Add(1)
	defer db.walMutGen.Add(1)
	if db.wal != nil {
		if err := db.wal.close(); err != nil {
			return fmt.Errorf("storedb: close wal before truncate: %w", err)
		}
		db.wal = nil
	}
	if err := fsRemove(db.walPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storedb: remove wal: %w", err)
	}
	w, err := openWalWriter(db.walPath(), db.opts.SyncWrites)
	if err != nil {
		return err
	}
	db.wal = w
	db.pending = 0
	return nil
}

// Tx is a transaction. Read transactions may be used concurrently by the
// goroutine family that received them; write transactions must stay on
// one goroutine.
type Tx struct {
	db       *DB
	tree     tree // a write tx's is begun: the tx owns the nodes it creates
	writable bool
	done     bool
	seq      uint64 // commit sequence, fixed at staging (write tx only)
	ops      []walOp
}

// record adds one operation to the transaction's batch. The first sizes
// the list for the most a vote makes: eight, with a comment on a
// program's first sight.
func (tx *Tx) record(op walOp) {
	if tx.ops == nil {
		tx.ops = make([]walOp, 0, 8)
	}
	tx.ops = append(tx.ops, op)
}

// CommitSeq returns the sequence number this write transaction will
// commit as, assuming it commits any operations. Values written under
// it are strictly increasing across commits, which makes them usable as
// cheap record versions (e.g. "was this marker rewritten since I read
// it?") without a separate counter key.
func (tx *Tx) CommitSeq() uint64 {
	if tx.seq != 0 {
		return tx.seq
	}
	return tx.db.seq.Load() + 1
}

// Bucket returns a handle to the named bucket. Buckets spring into being
// on first write; reading a never-written bucket simply finds no keys.
func (tx *Tx) Bucket(name string) (*Bucket, error) {
	if !validBucketName(name) {
		return nil, ErrBucketName
	}
	return &Bucket{tx: tx, name: name}, nil
}

// MustBucket is Bucket for compile-time-constant names; it panics on an
// invalid name instead of returning an error. It is kept small enough
// to inline (the check is out of line for that), so a handle that stays
// in the calling function — the usual tx.MustBucket(name).Get(key) — is
// never heap-allocated.
func (tx *Tx) MustBucket(name string) *Bucket {
	checkBucketName(name)
	return &Bucket{tx: tx, name: name}
}

func validBucketName(name string) bool {
	return name != "" && strings.IndexByte(name, 0) < 0
}

//go:noinline
func checkBucketName(name string) {
	if !validBucketName(name) {
		panic(ErrBucketName)
	}
}

// Bucket is a named key namespace within a transaction: every key is
// stored as name, a zero byte, then the key.
type Bucket struct {
	tx   *Tx
	name string
}

// keyScratch sizes the on-stack buffers read operations build their
// full keys in. The longest fixed-form key (a two-byte bucket name, a
// 20-byte software id and an 8-byte comment id) is 31 bytes; longer
// keys, such as long usernames, spill to the heap.
const keyScratch = 64

// wrap appends the bucket-qualified form of key to dst.
func (b *Bucket) wrap(dst, key []byte) []byte {
	dst = append(dst, b.name...)
	dst = append(dst, 0)
	return append(dst, key...)
}

// Get returns the value for key, or nil and false if absent. The
// returned slice is the store's own copy: it is never modified (a later
// Put installs a fresh slice beside it), so the caller may keep it past
// the transaction, but must not write to it.
func (b *Bucket) Get(key []byte) ([]byte, bool) {
	if b.tx.done {
		return nil, false
	}
	var scratch [keyScratch]byte
	return b.tx.tree.Get(b.wrap(scratch[:0], key))
}

// Put stores val under key. Both slices are copied.
func (b *Bucket) Put(key, val []byte) error {
	if b.tx.done {
		return ErrTxClosed
	}
	if !b.tx.writable {
		return ErrReadOnly
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	// One allocation holds both copies.
	klen := len(b.name) + 1 + len(key)
	buf := make([]byte, klen+len(val))
	k, v := b.wrap(buf[:0:klen], key), buf[klen:]
	copy(v, val)
	b.tx.tree.put(k, v)
	b.tx.record(walOp{op: opPut, key: k, val: v})
	return nil
}

// Delete removes key if present. Deleting an absent key is not an error.
func (b *Bucket) Delete(key []byte) error {
	if b.tx.done {
		return ErrTxClosed
	}
	if !b.tx.writable {
		return ErrReadOnly
	}
	var scratch [keyScratch]byte
	k := b.wrap(scratch[:0], key)
	if b.tx.tree.del(k) {
		b.tx.record(walOp{op: opDelete, key: append([]byte(nil), k...)})
	}
	return nil
}

// ForEach visits every key/value pair in the bucket in key order,
// stopping early if fn returns false.
func (b *Bucket) ForEach(fn func(k, v []byte) bool) {
	b.Range(nil, nil, fn)
}

// Range visits pairs with lo <= key < hi (nil bounds are open) in key
// order, stopping early if fn returns false. The key passed to fn has
// the bucket prefix stripped. Like the value, it is a slice of the
// store's own immutable copy: fn may keep either past the call and past
// the transaction, but must not write to them.
//
// fn may write through the same transaction; the iteration runs over
// the tree as it was when Range was called. A write transaction gives
// up the nodes it owns here (it begins again, under a new stamp), so
// that a write from fn copies whatever node the iteration stands on.
func (b *Bucket) Range(lo, hi []byte, fn func(k, v []byte) bool) {
	if b.tx.done {
		return
	}
	if b.tx.writable {
		b.tx.tree = b.tx.tree.begin()
	}
	var loBuf, hiBuf [keyScratch]byte
	from, to := b.wrap(loBuf[:0], lo), b.wrap(hiBuf[:0], hi)
	if hi == nil {
		to = prefixEnd(to) // the end of the bucket
	}
	strip := len(b.name) + 1
	b.tx.tree.Ascend(from, to, func(k, v []byte) bool {
		return fn(k[strip:], v)
	})
}

// RangePrefix visits pairs whose key starts with prefix, on Range's
// terms.
func (b *Bucket) RangePrefix(prefix []byte, fn func(k, v []byte) bool) {
	var buf [keyScratch]byte
	b.Range(prefix, prefixEnd(append(buf[:0], prefix...)), fn)
}

// Count returns the number of keys in the bucket with the given prefix
// (pass nil to count the whole bucket).
func (b *Bucket) Count(prefix []byte) int {
	var n int
	if prefix == nil {
		b.ForEach(func(_, _ []byte) bool { n++; return true })
	} else {
		b.RangePrefix(prefix, func(_, _ []byte) bool { n++; return true })
	}
	return n
}
