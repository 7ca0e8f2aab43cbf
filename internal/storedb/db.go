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

	current atomic.Pointer[tree] // durable root: commitLocked advances it, installLocked replaces it

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

// Open opens or creates a database per the options. On disk, recovery
// loads the newest snapshot and replays WAL batches with later sequence
// numbers; a torn log tail is discarded (rebuildLocked).
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

	var st committed // an in-memory store opens empty
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
			return nil, fmt.Errorf("storedb: create dir: %w", err)
		}
		if err := removeOrphanTemps(opts.Dir); err != nil {
			return nil, err
		}
		var err error
		if st, _, err = db.rebuildLocked(noLimit); err != nil {
			return nil, fmt.Errorf("storedb: open: %w", err)
		}
	}
	db.installLocked(st)

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
//
// Test seam: the daemon never counts its keys; recovery and replication
// tests compare the count across a crash or a bootstrap.
func (db *DB) Len() int { return db.current.Load().Len() }

// View runs fn in a read-only transaction over a consistent snapshot.
// With no defer, View inlines: the transaction stays on the stack.
func (db *DB) View(fn func(tx *Tx) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.views.Add(1)
	tx := Tx{db: db, tree: *db.current.Load()}
	err := fn(&tx)
	tx.done = true
	return err
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
	ops      []Op
	arena    []byte // what the ops' keys and values are slices of
}

// txLog is a write transaction's first allocation: room for the ops of
// a vote (eight at most) and the bytes of a score-only one's three.
type txLog struct {
	ops   [8]Op
	bytes [128]byte
}

// record adds an op to the transaction's batch, its bucket-qualified key
// and value copied into the arena: what the WAL, the tail ring and the
// replicas read after the transaction. An op that does not fit starts an
// arena twice the last one's size.
func (tx *Tx) record(del bool, name string, key, val []byte) Op {
	if tx.ops == nil {
		l := new(txLog)
		tx.ops, tx.arena = l.ops[:0], l.bytes[:0]
	}
	klen := len(name) + 1 + len(key)
	if need := klen + len(val); cap(tx.arena)-len(tx.arena) < need {
		tx.arena = make([]byte, 0, max(need, 2*cap(tx.arena)))
	}
	at, end := len(tx.arena), len(tx.arena)+klen+len(val)
	tx.arena = append(append(append(append(tx.arena, name...), 0), key...), val...)
	op := Op{Delete: del, Key: tx.arena[at : at+klen : at+klen], Val: tx.arena[at+klen : end : end]}
	tx.ops = append(tx.ops, op)
	return op
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

// MustBucket returns a handle to the named bucket. Buckets spring into
// being on first write; reading a never-written bucket simply finds no
// keys. Names are compile-time constants, so an invalid one panics with
// ErrBucketName. MustBucket is kept small enough to inline (the check is
// out of line for that), so a handle that stays in the calling function
// — the usual tx.MustBucket(name).Get(key) — is never heap-allocated.
func (tx *Tx) MustBucket(name string) *Bucket {
	checkBucketName(name)
	return &Bucket{tx: tx, name: name}
}

//go:noinline
func checkBucketName(name string) {
	if name == "" || strings.IndexByte(name, 0) >= 0 {
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
// returned slice is the store's own copy, never modified (leaf slabs are
// written once), so the caller may keep it past the transaction, but
// must not write to it; an append to it copies (its capacity ends).
func (b *Bucket) Get(key []byte) ([]byte, bool) {
	if b.tx.done {
		return nil, false
	}
	var scratch [keyScratch]byte
	return b.tx.tree.Get(b.wrap(scratch[:0], key))
}

// Put stores val under key. Both are copied, to the leaf and the op.
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
	op := b.tx.record(false, b.name, key, val)
	b.tx.tree.put(op.Key, op.Val)
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
		b.tx.record(true, b.name, key, nil)
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
