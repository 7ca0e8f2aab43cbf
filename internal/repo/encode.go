package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Record values are encoded with a compact, versioned, deterministic
// binary codec: a one-byte record version followed by fields in a fixed
// order. Keys (which need bytewise ordering) use the storedb key
// encoding instead; values never need ordering, only round-tripping.

// ErrDecode is returned when a stored record cannot be decoded.
var ErrDecode = errors.New("repo: record decode error")

// A record is built by appending its version byte and then its fields
// to a buffer, which the write path keeps on its stack.

func appendUint64(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendInt64(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

func appendFloat64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	return append(appendUint64(dst, uint64(len(s))), s...)
}

func appendBytes(dst, b []byte) []byte {
	return append(appendUint64(dst, uint64(len(b))), b...)
}

// appendTime stores a time as Unix nanoseconds; the zero time is stored
// as a sentinel so it round-trips IsZero.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return appendInt64(dst, math.MinInt64)
	}
	return appendInt64(dst, t.UnixNano())
}

type decoder struct {
	buf    []byte
	borrow bool // string fields share the record's memory: borrowString
}

// borrowString returns b as a string sharing b's memory: the repository's
// one use of unsafe. It is sound while nobody writes to b, and b is only
// ever a record read out of the tree, whose leaf slabs are written once:
// Bucket.Put appends its copy behind every byte already handed out, or
// into a fresh slab, and a later Put or Delete only moves the leaf's
// offsets, so the string keeps the old bytes as they were. The string
// pins what its record lies in — a leaf's slab, or the whole buffer a
// snapshot was loaded into — so it is for a caller that drops it within
// the request: ReportState's, when given scratch.
func borrowString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// newDecoder returns its decoder by value so that it lives in the
// caller's frame: the read path decodes several records per lookup.
func newDecoder(data []byte, wantVersion byte) (decoder, error) {
	if len(data) == 0 {
		return decoder{}, fmt.Errorf("%w: empty record", ErrDecode)
	}
	if data[0] != wantVersion {
		return decoder{}, fmt.Errorf("%w: record version %d, want %d", ErrDecode, data[0], wantVersion)
	}
	return decoder{buf: data[1:]}, nil
}

func (d *decoder) uint64() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrDecode)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) int64() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrDecode)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) float64() (float64, error) {
	if len(d.buf) < 8 {
		return 0, fmt.Errorf("%w: short float", ErrDecode)
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

func (d *decoder) bool() (bool, error) {
	if len(d.buf) < 1 {
		return false, fmt.Errorf("%w: short bool", ErrDecode)
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	if v > 1 {
		return false, fmt.Errorf("%w: bad bool %d", ErrDecode, v)
	}
	return v == 1, nil
}

// bytesField returns a length-prefixed field's bytes. They are borrowed
// from the record being decoded: callers copy what they keep.
func (d *decoder) bytesField() ([]byte, error) {
	n, err := d.uint64()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.buf)) < n {
		return nil, fmt.Errorf("%w: short field", ErrDecode)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) string() (string, error) { return d.stringIf(true) }

// stringIf is string when keep is set; otherwise it checks and steps
// over the field without materialising it, for decoders that serve a
// projection of their record.
func (d *decoder) stringIf(keep bool) (string, error) {
	b, err := d.bytesField()
	switch {
	case !keep:
		return "", err
	case d.borrow:
		return borrowString(b), err
	}
	return string(b), err
}

func (d *decoder) time() (time.Time, error) {
	v, err := d.int64()
	if err != nil {
		return time.Time{}, err
	}
	if v == math.MinInt64 {
		return time.Time{}, nil
	}
	return time.Unix(0, v).UTC(), nil
}

func (d *decoder) finish() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.buf))
	}
	return nil
}
