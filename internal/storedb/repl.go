package storedb

import (
	"bytes"
	"encoding/binary"
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

// Op is one key-value operation of an exported batch. Key carries the
// bucket prefix, exactly as stored.
type Op struct {
	// Delete marks a deletion; otherwise the op is a put.
	Delete bool
	// Key is the full key, bucket prefix included.
	Key []byte
	// Val is the value for puts; nil for deletes.
	Val []byte
}

// Batch is one committed transaction in exported form, as shipped to
// replicas. Seq numbers are contiguous on the primary; a replica
// applies them strictly in order.
type Batch struct {
	// Seq is the batch's commit sequence number.
	Seq uint64
	// Ops are the batch's operations in commit order.
	Ops []Op
}

func exportBatch(b walBatch) Batch {
	out := Batch{Seq: b.seq, Ops: make([]Op, len(b.ops))}
	for i, op := range b.ops {
		out.Ops[i] = Op{Delete: op.op == opDelete, Key: op.key, Val: op.val}
	}
	return out
}

func importBatch(b Batch) walBatch {
	out := walBatch{seq: b.Seq, ops: make([]walOp, len(b.Ops))}
	for i, op := range b.Ops {
		kind := opPut
		if op.Delete {
			kind = opDelete
		}
		out.ops[i] = walOp{op: kind, key: op.Key, val: op.Val}
	}
	return out
}

// EncodeBatch serialises a batch into the WAL payload form (sequence
// number, op count, ops) that replication frames carry on the wire.
func EncodeBatch(b Batch) []byte {
	wb := importBatch(b)
	return wb.encode()
}

// DecodeBatch parses a WAL payload produced by EncodeBatch. The frame
// CRC must already have been verified; this checks structure only.
func DecodeBatch(payload []byte) (Batch, error) {
	wb, err := decodeWalBatch(payload)
	if err != nil {
		return Batch{}, err
	}
	return exportBatch(wb), nil
}

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
// up to max batches (max <= 0 means all). ok reports whether the ring
// still covers position from+1; callers only invoke it when batches
// newer than from exist, so an empty ring always reports false.
func (r *batchRing) since(from uint64, max int, fn func(Batch) error) (ok bool, err error) {
	return r.sinceWithPrev(from, max, func(b Batch, _ uint64) error { return fn(b) })
}

// sinceWithPrev is since with each batch's predecessor digest.
func (r *batchRing) sinceWithPrev(from uint64, max int, fn func(Batch, uint64) error) (ok bool, err error) {
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

// noteCommits records committed batches in the tail ring and extends
// the history digest chain over their payloads, which it reads back
// from the frames logLocked built for them. Called with commitMu held,
// in commit order: the one place the chain advances.
func (db *DB) noteCommits(batches []walBatch, frames []byte) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	for _, b := range batches {
		var payload []byte
		payload, frames = nextFrame(frames)
		prev := db.chainDigest.Load()
		if db.recent != nil {
			db.recent.push(exportBatch(b), prev)
		}
		db.chainDigest.Store(chainStep(prev, payload))
		db.chainSeq = b.seq
	}
}

// Since streams committed batches with Seq > from to fn in order, up
// to max batches (max <= 0 means everything available). It serves from
// the in-memory tail ring when possible and falls back to scanning the
// on-disk WAL; if the requested position predates both, it returns
// ErrCompacted and the caller must bootstrap from a snapshot.
func (db *DB) Since(from uint64, max int, fn func(Batch) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if from >= db.Seq() {
		return nil // already caught up
	}

	db.replMu.Lock()
	ring := db.recent
	var ok bool
	var err error
	if ring != nil {
		ok, err = ring.since(from, max, fn)
	}
	db.replMu.Unlock()
	if ok {
		return err
	}

	// Ring cannot serve the position; fall back to the on-disk WAL.
	// The WAL only holds batches newer than the last snapshot, so a
	// position before the snapshot is gone for good.
	if db.opts.Dir == "" || from < db.snapSeq.Load() {
		return ErrCompacted
	}
	genBefore := db.walMutGen.Load()
	durable := db.seq.Load()
	count := 0
	last, _, err := scanWal(db.walPath(), func(b walBatch) error {
		if b.seq <= from {
			return nil
		}
		if max > 0 && count >= max {
			return errScanDone
		}
		count++
		return fn(exportBatch(b))
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

// noteWalScanShort classifies a WAL scan that ran to its natural end.
// Frames acknowledged before the scan began (seq <= durable) were fully
// appended by then, so a scan that stops short of them on a quiescent
// log hit a bad frame in the middle: mid-log corruption, which the
// torn-tail policy must not silently absorb. The seqlock generation
// distinguishes that from racing a compaction swap or truncation, which
// legitimately rewrites the file mid-scan and is not evidence.
func (db *DB) noteWalScanShort(last, durable, genBefore uint64) error {
	covered := last
	if snap := db.snapSeq.Load(); covered < snap {
		covered = snap
	}
	if covered >= durable {
		return nil // everything acknowledged is accounted for
	}
	if db.walMutGen.Load() != genBefore || genBefore%2 == 1 || db.Failed() {
		return nil // the file was in motion; the next scan decides
	}
	err := fmt.Errorf("%w: wal readable through seq %d, acknowledged %d", ErrCorrupt, covered, durable)
	return db.markCorrupt(UnitWALFrame, err)
}

// errScanDone stops a WAL scan early once max batches were emitted.
var errScanDone = fmt.Errorf("storedb: scan done")

// SetApplyHook registers fn to run after every replicated commit: once
// per ApplyBatch with the batch just applied, and once after
// RestoreSnapshotFrom with an op-less Batch carrying the restored
// sequence (meaning "the entire state was replaced"). The hook runs
// with the commit lock held, so it must not call Update, ApplyBatch,
// Compact, or RestoreSnapshotFrom; View is safe. Servers use it to
// invalidate derived caches when replication changes state underneath
// them. A nil fn removes the hook.
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
	if err := db.faultErr(); err != nil {
		return err
	}
	cur := db.seq.Load()
	if b.Seq <= cur {
		return nil // duplicate delivery during resume
	}
	if b.Seq != cur+1 {
		return fmt.Errorf("%w: got batch %d after %d", ErrSeqGap, b.Seq, cur)
	}

	wb := importBatch(b)
	wbs := []walBatch{wb}
	frames, err := db.logLocked(wbs)
	if err != nil {
		return err
	}
	t := db.current.Load().begin()
	t.apply(wb.ops)
	db.writeMu.Lock()
	db.current.Store(&t)
	db.seq.Store(b.Seq)
	db.staged = t
	db.stageSeq = b.Seq
	db.writeMu.Unlock()
	// A replicated epoch bump teaches this replica the cluster's
	// promotion epoch — the only way an epoch ever changes under it.
	for _, op := range wb.ops {
		if op.op == opPut && len(op.val) == 8 && bytes.Equal(op.key, epochKey()) {
			if e := binary.BigEndian.Uint64(op.val); e > db.epoch.Load() {
				db.epoch.Store(e)
			}
		}
	}
	db.noteCommits(wbs, frames)
	db.fireApplyHook(b)

	db.pending++
	db.maybeCompactLocked()
	return nil
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

// RestoreSnapshotFrom replaces the database's entire state with the
// snapshot stream read from r (every checksum verified before anything
// is installed) and returns the restored sequence number. On a durable
// database the snapshot is persisted and the WAL restarted, so a crash
// right after bootstrap recovers to the restored state. It is also the
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
	db.writeMu.Lock()
	db.current.Store(&t)
	db.seq.Store(seq)
	db.staged = t
	db.stageSeq = seq
	db.writeMu.Unlock()
	db.snapSeq.Store(seq)
	db.snapDigest.Store(digest)
	db.epoch.Store(epochFromTree(t))
	db.pending = 0

	// The tail ring describes the pre-restore history; drop it and wake
	// any waiters so cascading replicas re-sync from the new position.
	// The digest chain restarts from the stream's anchor.
	db.replMu.Lock()
	if db.recent != nil {
		db.recent = newBatchRing(len(db.recent.buf))
	}
	db.chainSeq = seq
	db.chainDigest.Store(digest)
	db.replMu.Unlock()

	// The store now holds freshly verified state; leave the corrupt
	// quarantine behind.
	db.amendFault(func(f *fault) { f.corruption, f.unit, f.quarantined = nil, "", false })

	// An op-less batch tells the hook the whole state changed.
	db.fireApplyHook(Batch{Seq: seq})
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

// ringFloorForTest exposes the oldest retained ring sequence to tests.
func (db *DB) ringFloorForTest() (uint64, bool) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if db.recent == nil {
		return 0, false
	}
	return db.recent.oldestSeq()
}
