package storedb

import (
	"encoding/binary"
	"errors"
	"sync"
)

// The commit pipeline: staging a write transaction, grouping concurrent
// committers, and commitLocked, the one step by which the store moves
// from a committed state to the next.

// commitGroup collects the batches of concurrent Update callers so one
// WAL write and one fsync can cover them all. The caller that creates
// the group is its leader: it flushes the group under commitMu while
// later committers keep staging the next group. Waiters wait on done
// and read err afterwards. A group is one allocation: its first batches
// live in it and, once it is flushed, so does the published root.
type commitGroup struct {
	batches  []Batch
	lastTree tree   // staging root after the newest member
	lastSeq  uint64 // sequence of the newest member
	flushed  bool   // guarded by commitMu
	err      error  // set before done is released
	done     sync.WaitGroup
	first    [4]Batch // backs batches until a fifth member joins
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
	g.batches = append(g.batches, Batch{Seq: tx.seq, Ops: tx.ops})
	g.lastTree = tx.tree
	g.lastSeq = tx.seq
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

// flushGroupLocked detaches g from staging, commits its batches (one
// WAL write and one fsync for them all), and releases the waiters. Any
// storage error fails the whole group and moves the database to the
// sticky failed state. Caller holds commitMu but not writeMu.
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

	// No member joins a group once it is detached, so lastTree is final.
	g.err = db.commitLocked(g.batches, &g.lastTree, false)
}

// commitLocked moves the store from one committed state to the next: the
// batches, consecutive from seq+1, take it to root. It is the only way a
// commit happens — a flushed group, a replicated batch, a promotion —
// and the order is the durability contract: refuse a store whose storage
// is at fault, log (a promotion forces the fsync whatever SyncWrites
// says), and only then publish, extend the digest chain and the ring,
// learn the epoch, count towards compaction, and tell the apply hook. A
// storage error fails the store and publishes nothing. Caller holds
// commitMu but not writeMu.
func (db *DB) commitLocked(batches []Batch, root *tree, forceSync bool) error {
	if err := db.faultErr(); err != nil {
		return err
	}
	frames, err := db.logLocked(batches, forceSync)
	if err != nil {
		return err
	}

	last := batches[len(batches)-1].Seq
	db.writeMu.Lock()
	db.current.Store(root)
	db.seq.Store(last)
	// A group's batches were staged by their own Updates. Any other
	// commit (ApplyBatch, BumpEpoch) changed the store underneath
	// staging, which follows it, and underneath whoever derives state
	// from the store, whom the apply hook tells.
	external := db.stageSeq < last
	if external {
		db.staged, db.stageSeq = *root, last
	}
	db.writeMu.Unlock()
	db.noteCommits(batches, frames)

	// A batch that writes the epoch record carries a promotion: the
	// store's own, or one it learns of from the primary it follows.
	for i := range batches {
		for _, op := range batches[i].Ops {
			if !op.Delete && len(op.Val) == 8 && string(op.Key) == epochRecord {
				if e := binary.BigEndian.Uint64(op.Val); e > db.epoch.Load() {
					db.epoch.Store(e)
				}
			}
		}
	}

	db.pending += len(batches)
	db.maybeCompactLocked()
	if external {
		for _, b := range batches {
			db.fireApplyHook(b)
		}
	}
	return nil
}

// logLocked encodes the batches once, as WAL frames, appends them to
// the log (one write and, when syncing, one fsync for them all; an
// in-memory store has no log and only encodes), and counts the group.
// The frames it returns, for noteCommits to chain over, are valid until
// the next append. A storage error moves the database to the sticky
// failed state. Caller holds commitMu.
func (db *DB) logLocked(batches []Batch, forceSync bool) ([]byte, error) {
	var frames []byte
	switch {
	case db.opts.Dir == "":
		frames = appendFrames(nil, batches)
	case db.wal == nil:
		// Every path that closes the log without reopening it leaves a
		// fault behind, which commitLocked refuses first; a store that
		// gets here without one must not report a commit it never wrote.
		return nil, db.fail(errors.New("storedb: wal is not open"))
	default:
		var err error
		if frames, err = db.wal.appendGroup(batches); err != nil {
			return nil, db.fail(err)
		}
		db.walBytes.Add(uint64(len(frames)))
		if forceSync && !db.opts.SyncWrites {
			if err := db.wal.syncNow(); err != nil {
				return nil, db.fail(err)
			}
		}
		if forceSync || db.opts.SyncWrites {
			db.walFsyncs.Add(1)
		}
	}
	db.walGroups.Add(1)
	db.walBatches.Add(uint64(len(batches)))
	return frames, nil
}

// noteCommits records committed batches in the tail ring and extends
// the history digest chain over their payloads, which it reads back
// from the frames logLocked built for them. Called by commitLocked, in
// commit order: the one place the chain advances (installLocked is the
// one place it is set).
func (db *DB) noteCommits(batches []Batch, frames []byte) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	for _, b := range batches {
		var payload []byte
		payload, frames = nextFrame(frames)
		prev := db.chainDigest.Load()
		if db.recent != nil {
			db.recent.push(b, prev)
		}
		db.chainDigest.Store(chainStep(prev, payload))
		db.chainSeq = b.Seq
	}
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
