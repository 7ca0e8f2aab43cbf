package storedb

import (
	"encoding/binary"
	"errors"
	"math"
)

// Ordered key encoding. Composite keys for tables and secondary indexes
// are built by appending encoded components; the encoding guarantees that
// bytewise comparison of encoded keys matches component-wise comparison
// of the values, which is what makes range scans over index prefixes
// correct.

// AppendUint64 appends v in big-endian order, which sorts numerically.
func AppendUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// TakeUint64 decodes a component written by AppendUint64 and returns the
// remaining bytes.
func TakeUint64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, errors.New("storedb: short uint64 key component")
	}
	return binary.BigEndian.Uint64(src[:8]), src[8:], nil
}

// AppendInt64 appends v so that signed values sort correctly: the sign
// bit is flipped before big-endian encoding.
func AppendInt64(dst []byte, v int64) []byte {
	return AppendUint64(dst, uint64(v)^(1<<63))
}

// TakeInt64 decodes a component written by AppendInt64.
func TakeInt64(src []byte) (int64, []byte, error) {
	u, rest, err := TakeUint64(src)
	if err != nil {
		return 0, nil, err
	}
	return int64(u ^ (1 << 63)), rest, nil
}

// AppendFloat64 appends v with an order-preserving transform of its IEEE
// 754 bits: non-negative values get the sign bit set; negative values are
// bitwise inverted.
func AppendFloat64(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return AppendUint64(dst, bits)
}

// TakeFloat64 decodes a component written by AppendFloat64.
func TakeFloat64(src []byte) (float64, []byte, error) {
	u, rest, err := TakeUint64(src)
	if err != nil {
		return 0, nil, err
	}
	if u&(1<<63) != 0 {
		u &^= 1 << 63
	} else {
		u = ^u
	}
	return math.Float64frombits(u), rest, nil
}

// AppendString appends s with 0x00 bytes escaped as 0x00 0xFF and a
// 0x00 0x00 terminator. The escaping keeps bytewise order identical to
// string order while letting a composite key continue after the string.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x00)
}

// TakeString decodes a component written by AppendString.
func TakeString(src []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(src); i++ {
		if src[i] != 0x00 {
			out = append(out, src[i])
			continue
		}
		if i+1 >= len(src) {
			return "", nil, errors.New("storedb: truncated string key component")
		}
		switch src[i+1] {
		case 0x00:
			return string(out), src[i+2:], nil
		case 0xFF:
			out = append(out, 0x00)
			i++
		default:
			return "", nil, errors.New("storedb: bad escape in string key component")
		}
	}
	return "", nil, errors.New("storedb: unterminated string key component")
}

// PrefixEnd returns the smallest key that is greater than every key with
// the given prefix, suitable as the exclusive upper bound of a range
// scan. It returns nil (unbounded) when the prefix is all 0xFF.
func PrefixEnd(prefix []byte) []byte {
	return prefixEnd(append([]byte(nil), prefix...))
}

// prefixEnd is PrefixEnd in place: it overwrites end and returns a
// prefix of it.
func prefixEnd(end []byte) []byte {
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
