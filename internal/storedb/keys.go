package storedb

import (
	"encoding/binary"
	"errors"
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

// prefixEnd returns the smallest key that is greater than every key
// with the given prefix, suitable as the exclusive upper bound of a
// range scan, or nil (unbounded) when the prefix is all 0xFF. It works
// in place: it overwrites end and returns a prefix of it.
func prefixEnd(end []byte) []byte {
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
