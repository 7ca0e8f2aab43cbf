// Package replication ships the store's write-ahead log from a primary
// server to its replicas.
//
// The primary publishes two HTTP endpoints (wired up by
// internal/server): /repl/snapshot streams a full snapshot for
// bootstrap, and /repl/wal streams committed batches after a given
// sequence number. A replica pulls: it asks for batches after its own
// sequence number, applies them in order through its local store (and
// therefore its local WAL), and falls back to a snapshot bootstrap when
// the primary answers that the requested position has been compacted
// away.
//
// Batches travel in the framed form the WAL uses on disk, one
// internal/frame frame each. The CRC is verified on receipt before a
// batch is applied, so a corrupted stream is detected at the frame where
// it happened and the replica simply re-pulls from its last good
// sequence number — applied state is never poisoned.
//
// Each /repl/wal frame payload is an envelope around the batch:
//
//	[8 bytes primary epoch][8 bytes digest of history *before* the
//	batch][batch payload]
//
// The digest lets the replica verify, before applying, that the
// primary's history up to this point is byte-identical to its own — a
// mismatch means the replica's tail diverged (it holds writes acked by
// a deposed primary) and must be repaired, not appended to. The epoch
// lets it refuse batches from a primary older than one it has already
// followed.
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"softreputation/internal/frame"
	"softreputation/internal/storedb"
)

const (
	maxFrameSize = 1 << 30 // matches storedb's record bound

	envelopeSize = 16 // two 8-byte words ahead of the batch
)

// ErrBadFrame reports a frame whose CRC or length check failed; the
// stream cannot be trusted past this point.
var ErrBadFrame = errors.New("replication: bad frame")

// appendEnvelope appends to dst one frame whose payload is an envelope,
// the two words a and b ahead of the batch's payload: on /repl/wal the
// primary's epoch and the digest of the history before the batch, in the
// recovery journal the epoch the batch was acked under and the one that
// superseded it.
func appendEnvelope(dst []byte, a, b uint64, batch storedb.Batch) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(frame.Begin(dst), a)
	dst = binary.BigEndian.AppendUint64(dst, b)
	dst = append(dst, storedb.EncodeBatch(batch)...)
	frame.End(dst[start:])
	return dst
}

// readEnvelope reads one frame from r and splits its envelope. It
// returns io.EOF at a clean end of stream and ErrBadFrame for a frame
// that is torn, corrupt or too short to hold an envelope.
func readEnvelope(r *bufio.Reader) (a, b uint64, batch []byte, err error) {
	payload, err := frame.Read(r, nil, maxFrameSize)
	switch {
	case err == io.EOF:
		return 0, 0, nil, err
	case err != nil:
		return 0, 0, nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	case len(payload) < envelopeSize:
		return 0, 0, nil, fmt.Errorf("%w: short envelope", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(payload[0:8]), binary.BigEndian.Uint64(payload[8:16]), payload[envelopeSize:], nil
}
