// Package frame is the one framed record every byte stream of the
// system is made of: the store's WAL and snapshot blocks, the /repl/wal
// stream, the recovery journal, and the binary wire protocol's requests,
// responses and session calls. A frame is
//
//	[4 bytes payload length][4 bytes CRC-32 (IEEE) of payload][payload]
//
// big-endian, with a payload of at least one byte. A reader checks the
// length against its caller's bound before it trusts it and the CRC
// before it hands the payload out, so a torn, forged or corrupted frame
// is refused whole. This package is the only code that writes or checks
// a frame's header; what a payload holds is its caller's format.
//
// The errors Split and Read return say what was wrong with the frame
// ("torn header: ...", "length N", "torn payload", "crc mismatch") and
// are meant to be wrapped by the caller's own bad-frame error.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderSize is the length and CRC prefix ahead of every payload.
const HeaderSize = 8

// minGrowth is the least Read grows a buffer by when the bytes it has
// seen arrive do not ask for more.
const minGrowth = 4 << 10

// ErrCRC is the error of a frame read whole whose CRC does not match:
// its content cannot be trusted, but its boundary can.
var ErrCRC = errors.New("crc mismatch")

// Begin appends room for a frame header to dst. The caller appends the
// payload behind it and then calls End on the frame.
func Begin(dst []byte) []byte {
	return append(dst, make([]byte, HeaderSize)...)
}

// End fills in the header of f, a frame Begin started: f[HeaderSize:]
// is its payload.
func End(f []byte) {
	binary.BigEndian.PutUint32(f[0:4], uint32(len(f)-HeaderSize))
	binary.BigEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(f[HeaderSize:]))
}

// Append appends payload to dst as one frame.
func Append(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(Begin(dst), payload...)
	End(dst[start:])
	return dst
}

// header reads h's length and CRC, refusing a length of zero or past
// limit.
func header(h []byte, limit int) (length int, crc uint32, err error) {
	n := binary.BigEndian.Uint32(h[0:4])
	if n == 0 || int64(n) > int64(limit) {
		return 0, 0, fmt.Errorf("length %d", n)
	}
	return int(n), binary.BigEndian.Uint32(h[4:8]), nil
}

// Split splits buf into the payload of its first frame, which may be at
// most limit bytes, and the bytes after that frame. The payload is a
// view of buf.
func Split(buf []byte, limit int) (payload, rest []byte, err error) {
	if len(buf) < HeaderSize {
		return nil, nil, errors.New("short frame header")
	}
	n, crc, err := header(buf, limit)
	if err != nil {
		return nil, nil, err
	}
	if len(buf)-HeaderSize < n {
		return nil, nil, errors.New("torn payload")
	}
	payload = buf[HeaderSize : HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, ErrCRC
	}
	return payload, buf[HeaderSize+n:], nil
}

// Read reads one frame of at most limit payload bytes from r and
// returns its payload. It returns io.EOF itself at a clean end of stream;
// a torn frame's error wraps the read error that tore it. The
// payload is read into buf's memory, which grows only when too short: a
// stream read frame after frame into one buffer allocates nothing once
// it has grown. A length past limit is refused before anything is
// allocated, and buf grows as the payload's bytes arrive (what r holds
// buffered, or minGrowth more), not to the length the header claims: a
// header alone pins no memory.
func Read(r *bufio.Reader, buf []byte, limit int) ([]byte, error) {
	h, err := r.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(h) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("torn header: %w", err)
	}
	n, crc, err := header(h, limit)
	if err != nil {
		return nil, err
	}
	_, _ = r.Discard(HeaderSize)
	payload := buf[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), max(len(payload), r.Buffered(), minGrowth)))
		}
		chunk := payload[len(payload):min(cap(payload), n)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("torn payload: %w", err)
		}
		payload = payload[:len(payload)+len(chunk)]
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, ErrCRC
	}
	return payload, nil
}
