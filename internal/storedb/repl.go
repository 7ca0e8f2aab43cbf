package storedb

import (
	"fmt"
	"io"
)

// WAL tailing and export: the primary/replica replication tier ships
// committed batches between databases. The primary side exports them
// with Since (from an in-memory ring of recent batches, falling back
// to the on-disk WAL) and dumps full snapshot streams with WriteSnapshotTo for replica bootstrap.
// The replica side applies shipped batches with ApplyBatch (which
// writes them through the replica's own WAL for durability) and
// installs bootstrap streams with RestoreSnapshotFrom.

// batchRing is a fixed-capacity ring of the most recent committed
// batches, kept so replicas can tail an in-memory database (and skip
// disk reads on a durable one). Each entry carries the history digest
// at the batch's predecessor, so replication frames can be served with
// their chain proof without re-deriving it. Guarded by DB.replMu.
type batchRing struct {
	buf   []ringEntry
	start int // index of the oldest entry
	n     int
}

type ringEntry struct {
	b    Batch
	prev uint64 // chain digest at b.Seq-1
}

func newBatchRing(capacity int) *batchRing {
	if capacity <= 0 {
		return &batchRing{}
	}
	return &batchRing{buf: make([]ringEntry, capacity)}
}

func (r *batchRing) push(b Batch, prev uint64) {
	if len(r.buf) == 0 {
		return
	}
	e := ringEntry{b: b, prev: prev}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// oldestSeq returns the sequence number of the oldest retained batch.
func (r *batchRing) oldestSeq() (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.buf[r.start].b.Seq, true
}

// digestAt returns the chain digest at the given sequence, derivable
// from the ring as the predecessor digest of the entry at seq+1.
func (r *batchRing) digestAt(seq uint64) (uint64, bool) {
	for i := r.n - 1; i >= 0; i-- {
		e := r.buf[(r.start+i)%len(r.buf)]
		if e.b.Seq == seq+1 {
			return e.prev, true
		}
		if e.b.Seq <= seq {
			break
		}
	}
	return 0, false
}

// truncateTo drops retained batches with Seq > seq, after a tail
// truncation or recovery rewound the database below the ring's head.
func (r *batchRing) truncateTo(seq uint64) {
	for r.n > 0 {
		idx := (r.start + r.n - 1) % len(r.buf)
		if r.buf[idx].b.Seq <= seq {
			return
		}
		r.buf[idx] = ringEntry{}
		r.n--
	}
}

// since calls fn for every retained batch with Seq > from, in order,
// with the batch's predecessor digest, up to max batches (max <= 0
// means all). ok reports whether the ring still covers position from+1;
// callers only invoke it when batches newer than from exist, so an
// empty ring always reports false.
func (r *batchRing) since(from uint64, max int, fn func(Batch, uint64) error) (ok bool, err error) {
	oldest, any := r.oldestSeq()
	if !any || from+1 < oldest {
		return false, nil
	}
	sent := 0
	for i := 0; i < r.n; i++ {
		e := r.buf[(r.start+i)%len(r.buf)]
		if e.b.Seq <= from {
			continue
		}
		if max > 0 && sent >= max {
			break
		}
		if err := fn(e.b, e.prev); err != nil {
			return true, err
		}
		sent++
	}
	return true, nil
}

// Seq returns the last committed batch sequence number.
func (db *DB) Seq() uint64 { return db.seq.Load() }

// SnapSeq returns the sequence number covered by the newest snapshot —
// the compaction floor below which Since cannot serve.
func (db *DB) SnapSeq() uint64 { return db.snapSeq.Load() }

// ReplicaMode reports whether local writes are refused (SetReplicaMode).
func (db *DB) ReplicaMode() bool { return db.role.Load()&roleReplica != 0 }

// SetReplicaMode toggles replica mode: while set, Update returns
// ErrReplica and the database changes only through ApplyBatch and
// RestoreSnapshotFrom. Promotion clears it.
func (db *DB) SetReplicaMode(v bool) { db.setRole(roleReplica, v) }

// Since streams committed batches with Seq > from to fn in order, up
// to max batches (max <= 0 means everything available). It serves from
// the in-memory tail ring when possible and falls back to scanning the
// on-disk WAL; if the requested position predates both, it returns
// ErrCompacted and the caller must bootstrap from a snapshot.
func (db *DB) Since(from uint64, max int, fn func(Batch) error) error {
	return db.SinceWithDigest(from, max, func(b Batch, _ uint64) error { return fn(b) })
}

// SinceWithDigest is Since with each batch's predecessor digest: fn
// receives the chain value at b.Seq-1 alongside the batch, which is
// what a replication frame carries so the replica can verify its local
// chain before applying. It is the one reader of the committed tail.
func (db *DB) SinceWithDigest(from uint64, max int, fn func(b Batch, prev uint64) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if from >= db.Seq() {
		return nil // already caught up
	}

	db.replMu.Lock()
	var ok bool
	var err error
	if db.recent != nil {
		ok, err = db.recent.since(from, max, fn)
	}
	db.replMu.Unlock()
	if ok {
		return err
	}

	// Ring cannot serve the position; fall back to the on-disk WAL.
	// The WAL only holds batches newer than the last snapshot, so a
	// position before the snapshot is gone for good.
	snapSeq := db.snapSeq.Load()
	if db.opts.Dir == "" || from < snapSeq {
		return ErrCompacted
	}
	genBefore := db.walMutGen.Load()
	durable := db.seq.Load()
	prev := db.snapDigest.Load()
	count := 0
	last, err := scanWalFrames(db.walPath(), func(b Batch, payload []byte, _ int64) error {
		if b.Seq <= snapSeq {
			return nil
		}
		if b.Seq > from {
			if max > 0 && count >= max {
				return errScanDone
			}
			count++
			if err := fn(b, prev); err != nil {
				return err
			}
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
		return db.markCorrupt(UnitWALFrame, cerr)
	}
	return nil
}

// noteWalScanShort classifies a WAL scan that ran to its natural end.
// Frames acknowledged before the scan began (seq <= durable) were fully
// appended by then, so a scan that stops short of them on a quiescent
// log hit a bad frame in the middle: mid-log corruption, which the
// torn-tail policy must not silently absorb. The seqlock generation
// distinguishes that from racing a compaction swap or truncation, which
// legitimately rewrites the file mid-scan and is not evidence. It
// returns the verdict, wrapping ErrCorrupt, for the caller to mark the
// store with.
func (db *DB) noteWalScanShort(last, durable, genBefore uint64) error {
	covered := last
	if snap := db.snapSeq.Load(); covered < snap {
		covered = snap
	}
	if covered >= durable {
		return nil // everything acknowledged is accounted for
	}
	if !db.walQuiescentSince(genBefore) {
		return nil // the file was in motion; the next scan decides
	}
	return fmt.Errorf("%w: wal readable through seq %d, acknowledged %d", ErrCorrupt, covered, durable)
}

// walQuiescentSince reports whether a lock-free scan of the log that
// began at generation gen can be taken as evidence: no maintenance path
// was rewriting the file set then or since (a stable even generation),
// and no failed append is being rewound.
func (db *DB) walQuiescentSince(gen uint64) bool {
	return db.walMutGen.Load() == gen && gen%2 == 0 && !db.Failed()
}

// errScanDone stops a WAL scan early once max batches were emitted.
var errScanDone = fmt.Errorf("storedb: scan done")

// SetApplyHook registers fn to run after every commit that did not come
// from a local Update: once per ApplyBatch or BumpEpoch with the batch
// just committed, and once after every wholesale replacement of the
// state (RestoreSnapshotFrom, TruncateTail, Reopen) with an op-less
// Batch carrying the installed sequence, meaning "anything may have
// changed". The hook runs with the commit lock held, so it must not
// call Update, ApplyBatch, Compact, or RestoreSnapshotFrom; View is
// safe. Servers use it to invalidate derived caches when the store
// changes underneath them. A nil fn removes the hook.
func (db *DB) SetApplyHook(fn func(Batch)) {
	db.applyMu.Lock()
	db.applyHook = fn
	db.applyMu.Unlock()
}

func (db *DB) fireApplyHook(b Batch) {
	db.applyMu.Lock()
	fn := db.applyHook
	db.applyMu.Unlock()
	if fn != nil {
		fn(b)
	}
}

// ApplyBatch applies one batch shipped from the primary. Batches must
// arrive strictly in order: a batch at or before the current sequence
// is ignored (idempotent resume), the next sequence is applied and
// written through the local WAL, and anything further ahead returns
// ErrSeqGap. ApplyBatch works even in replica mode — it is how a
// replica changes.
func (db *DB) ApplyBatch(b Batch) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.faultErr(); err != nil {
		return err
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.drainOpenGroupLocked()
	if db.closed.Load() {
		return ErrClosed
	}
	cur := db.seq.Load()
	if b.Seq <= cur {
		return nil // duplicate delivery during resume
	}
	if b.Seq != cur+1 {
		return fmt.Errorf("%w: got batch %d after %d", ErrSeqGap, b.Seq, cur)
	}
	t := db.current.Load().begin()
	t.apply(b.Ops)
	return db.commitLocked([]Batch{b}, &t, false)
}

// WriteSnapshotTo streams a consistent snapshot of the current state
// to w in the snapshot file layout (per-block checksums included) and
// returns the sequence number it covers. The snapshot is taken
// atomically but encoding happens outside the write lock: writers keep
// committing while the dump streams. It works on a corrupt database —
// the in-memory tree predates the corruption — which is what lets a
// still-healthy replica bootstrap even while its primary awaits repair.
func (db *DB) WriteSnapshotTo(w io.Writer) (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	db.commitMu.Lock()
	t := *db.current.Load()
	seq := db.seq.Load()
	digest := db.chainDigest.Load()
	db.commitMu.Unlock()
	if err := encodeSnapshot(w, t, seq, digest); err != nil {
		return seq, err
	}
	return seq, nil
}
