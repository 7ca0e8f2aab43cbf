package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Record values are encoded with a compact, versioned, deterministic
// binary codec: a one-byte record version followed by fields in a fixed
// order. Keys (which need bytewise ordering) use the storedb key
// encoding instead; values never need ordering, only round-tripping.

// ErrDecode is returned when a stored record cannot be decoded.
var ErrDecode = errors.New("repo: record decode error")

type encoder struct {
	buf []byte
}

func newEncoder(version byte) *encoder {
	return &encoder{buf: []byte{version}}
}

func (e *encoder) bytes() []byte { return e.buf }

func (e *encoder) putUint64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) putInt64(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

func (e *encoder) putFloat64(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) putBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) putString(s string) {
	e.putUint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) putBytes(b []byte) {
	e.putUint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// putTime stores a time as Unix nanoseconds; the zero time is stored as
// a sentinel so it round-trips IsZero.
func (e *encoder) putTime(t time.Time) {
	if t.IsZero() {
		e.putInt64(math.MinInt64)
		return
	}
	e.putInt64(t.UnixNano())
}

type decoder struct {
	buf []byte
}

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
	if !keep {
		return "", err
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
