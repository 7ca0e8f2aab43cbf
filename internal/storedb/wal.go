package storedb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"softreputation/internal/frame"
)

// Write-ahead log. Each committed transaction appends one internal/frame
// frame, whose payload is a batch:
//
//	[8 bytes sequence number][uvarint op count] then per op:
//	[1 byte op (1=put, 2=delete)][uvarint key len][key]
//	and for puts [uvarint value len][value]
//
// Recovery replays records in order. A record with a bad length or CRC,
// or one whose sequence number does not directly follow its
// predecessor's, is treated as a torn tail: everything before it is
// kept, the file is cut at its start (rebuildLocked), and recovery
// succeeds.
// Corruption that is *not* at the tail cannot be distinguished from a
// torn tail by the reader, so the same policy applies; the snapshot
// sequence number guards against replaying stale batches after
// compaction. Together these give the recovery prefix property: replay
// always yields an exact prefix of the committed batches, never a torn,
// duplicated, or reordered one.

const (
	opPut    byte = 1
	opDelete byte = 2

	maxRecordSize = 1 << 30
)

// Op is one key-value operation of a batch. Key carries the bucket
// prefix, exactly as stored.
type Op struct {
	// Delete marks a deletion; otherwise the op is a put.
	Delete bool
	// Key is the full key, bucket prefix included.
	Key []byte
	// Val is the value for puts; nil for deletes.
	Val []byte
}

// Batch is one committed transaction: what a write transaction records,
// what the log frames, what the tail ring keeps and what is shipped to
// replicas, with no conversion between them. Seq numbers are contiguous
// on the primary; a replica applies them strictly in order. Whoever is
// handed a committed Batch shares its Ops with every other reader and
// must not write to them.
type Batch struct {
	// Seq is the batch's commit sequence number.
	Seq uint64
	// Ops are the batch's operations in commit order.
	Ops []Op
}

// apply replays ops into t, which its caller has begun.
func (t *tree) apply(ops []Op) {
	for _, op := range ops {
		if op.Delete {
			t.del(op.Key)
		} else {
			t.put(op.Key, op.Val)
		}
	}
}

// encodedSize bounds the length of the batch's payload.
func (b *Batch) encodedSize() int {
	size := 8 + binary.MaxVarintLen64
	for _, op := range b.Ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Val)
	}
	return size
}

// appendTo appends the batch's payload to buf.
func (b *Batch) appendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, b.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		if op.Delete {
			buf = append(buf, opDelete)
		} else {
			buf = append(buf, opPut)
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		if !op.Delete {
			buf = binary.AppendUvarint(buf, uint64(len(op.Val)))
			buf = append(buf, op.Val...)
		}
	}
	return buf
}

// EncodeBatch returns the batch's payload: the bytes a WAL frame holds,
// the history digest chains over and a replication frame carries.
func EncodeBatch(b Batch) []byte {
	return b.appendTo(make([]byte, 0, b.encodedSize()))
}

// appendFrames appends each batch to buf as one log frame, growing buf
// at most once: the one encoding of a batch on its way to the log and
// into the history digest (noteCommits splits the payloads back off).
func appendFrames(buf []byte, batches []Batch) []byte {
	size := 0
	for i := range batches {
		size += frame.HeaderSize + batches[i].encodedSize()
	}
	buf = slices.Grow(buf, size)
	for i := range batches {
		start := len(buf)
		buf = batches[i].appendTo(frame.Begin(buf))
		frame.End(buf[start:])
	}
	return buf
}

// DecodeBatch parses a payload EncodeBatch produced. The frame CRC must
// already have been verified; this checks structure only. The batch's
// keys and values are slices of payload.
func DecodeBatch(payload []byte) (Batch, error) {
	var b Batch
	if len(payload) < 8 {
		return b, fmt.Errorf("%w: short batch header", ErrCorrupt)
	}
	b.Seq = binary.BigEndian.Uint64(payload)
	payload = payload[8:]
	count, n := binary.Uvarint(payload)
	// Every op costs at least two payload bytes, so a count beyond the
	// remaining length is corrupt — checked before the ops slice is
	// sized from it.
	if n <= 0 || count > uint64(len(payload)-n) {
		return b, fmt.Errorf("%w: bad op count", ErrCorrupt)
	}
	payload = payload[n:]
	b.Ops = make([]Op, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(payload) < 1 {
			return b, fmt.Errorf("%w: truncated op", ErrCorrupt)
		}
		kind := payload[0]
		payload = payload[1:]
		if kind != opPut && kind != opDelete {
			return b, fmt.Errorf("%w: unknown op %d", ErrCorrupt, kind)
		}
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload)-n) < klen {
			return b, fmt.Errorf("%w: bad key length", ErrCorrupt)
		}
		payload = payload[n:]
		op := Op{Delete: kind == opDelete, Key: payload[:klen:klen]}
		payload = payload[klen:]
		if !op.Delete {
			vlen, n := binary.Uvarint(payload)
			if n <= 0 || uint64(len(payload)-n) < vlen {
				return b, fmt.Errorf("%w: bad value length", ErrCorrupt)
			}
			payload = payload[n:]
			op.Val = payload[:vlen:vlen]
			payload = payload[vlen:]
		}
		b.Ops = append(b.Ops, op)
	}
	if len(payload) != 0 {
		return b, fmt.Errorf("%w: trailing bytes in batch", ErrCorrupt)
	}
	return b, nil
}

// walWriter appends framed batches to the log file. It tracks the
// offset of the last good frame boundary so a failed append can be
// rewound: a batch whose write or fsync errored was reported as failed
// to the committer, and must not linger in the file where recovery
// would resurrect it as committed.
type walWriter struct {
	f    *os.File
	sync bool
	off  int64  // end of the last fully appended frame
	buf  []byte // the last group's frames, reused by the next
}

func openWalWriter(path string, sync bool) (*walWriter, error) {
	_, statErr := os.Stat(path)
	fresh := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storedb: open wal: %w", err)
	}
	if fresh {
		// The file exists but its directory entry does not survive a
		// power loss until the parent directory is synced — a crash
		// right after the first commit could otherwise lose the whole
		// log while the commit was already acknowledged.
		fsCreated(path)
		if err := fsSyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("storedb: sync dir after wal create: %w", err)
		}
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storedb: stat wal: %w", err)
	}
	return &walWriter{f: f, sync: sync, off: info.Size()}, nil
}

// walBufKeep is the largest frame buffer a walWriter keeps between
// appends: an aggregation publish's megabytes are not kept for votes.
const walBufKeep = 1 << 20

// appendGroup appends the batches as consecutive frames with a single
// buffered write and, when syncing, a single fsync covering them all —
// the group-commit amortization. It returns the frames, in the writer's
// own buffer, valid until the next call. On any error the file is
// rewound to the last good frame boundary: the whole group was reported
// as failed and none of it may linger where recovery would resurrect it.
func (w *walWriter) appendGroup(batches []Batch) ([]byte, error) {
	buf := appendFrames(w.buf[:0], batches)
	if cap(buf) <= walBufKeep {
		w.buf = buf
	}
	if n, err := fsWrite(w.f, buf, "wal"); err != nil || n != len(buf) {
		w.rewind()
		if err == nil {
			err = fmt.Errorf("short write: %d of %d bytes", n, len(buf))
		}
		return nil, fmt.Errorf("storedb: wal write: %w", err)
	}
	if w.sync {
		if err := fsSync(w.f, "wal"); err != nil {
			w.rewind()
			return nil, fmt.Errorf("storedb: wal sync: %w", err)
		}
	}
	w.off += int64(len(buf))
	return buf, nil
}

// syncNow fsyncs the log regardless of the writer's sync mode. The
// promotion path uses it: an epoch bump must be durable even on stores
// opened without SyncWrites. On failure the appended-but-unsynced bytes
// stay; the caller fails sticky and Reopen cuts the unacknowledged tail.
func (w *walWriter) syncNow() error {
	return fsSync(w.f, "wal")
}

// rewind truncates the log back to the last good frame boundary after
// a failed append. Best-effort: if the truncate itself fails the bytes
// stay, and recovery's CRC check will still refuse a torn frame — only
// a fully written frame whose fsync failed needs this.
func (w *walWriter) rewind() {
	_ = w.f.Truncate(w.off)
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walTailLocked returns the log's bytes past off, where it ended at batch
// cover, if they are the frames of batches cover+1 to the store's seq,
// each whole, CRC intact and in order; no batch is decoded. Caller holds
// commitMu.
func (db *DB) walTailLocked(cover uint64, off int64) ([]byte, bool) {
	tail := make([]byte, max(db.wal.off-off, 0))
	f, err := os.Open(db.walPath())
	if err == nil {
		_, err = f.ReadAt(tail, off)
		f.Close()
	}
	if err != nil || off > db.wal.off {
		return nil, false
	}
	next := cover + 1
	for rest := tail; len(rest) > 0; next++ {
		var payload []byte
		payload, rest, err = frame.Split(rest, maxRecordSize)
		if err != nil || len(payload) < 8 || binary.BigEndian.Uint64(payload) != next {
			return nil, false
		}
	}
	return tail, next == db.seq.Load()+1
}

// scanWalFrames reads batches from the log at path, calling apply for
// each good one in order with its verified payload (the bytes the
// history digest chains over; the batch's keys and values are slices of
// it) and the offset its frame ends at, so a caller can cut the log at
// an exact frame boundary. It returns the highest sequence number seen.
// It never modifies the file, so replication tailing can scan the log a
// writer is still appending to. Frames must be contiguous: a frame
// whose sequence number is not its predecessor's plus one ends the scan
// as a torn tail — duplicated or reordered frames never replay.
func scanWalFrames(path string, apply func(b Batch, payload []byte, end int64) error) (lastSeq uint64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storedb: open wal for replay: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storedb: stat wal for replay: %w", err)
	}
	size := info.Size()

	r := bufio.NewReaderSize(f, 1<<16)
	var offset int64
	for {
		// A clean end, a torn header or payload, a length past the bytes
		// the file held when the scan began, or a CRC mismatch ends the
		// log: keep everything before it.
		payload, err := frame.Read(r, nil, int(min(maxRecordSize, size-offset-frame.HeaderSize)))
		if err != nil {
			break
		}
		batch, derr := DecodeBatch(payload)
		if derr != nil {
			break
		}
		if lastSeq != 0 && batch.Seq != lastSeq+1 {
			break
		}
		offset += frame.HeaderSize + int64(len(payload))
		if err := apply(batch, payload, offset); err != nil {
			return lastSeq, err
		}
		lastSeq = batch.Seq
	}
	return lastSeq, nil
}
