package storedb

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyUint64Order(t *testing.T) {
	f := func(a, b uint64) bool {
		ka := AppendUint64(nil, a)
		kb := AppendUint64(nil, b)
		if len(ka) != 8 || binary.BigEndian.Uint64(ka) != a {
			return false
		}
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStringRoundTripAndOrder(t *testing.T) {
	f := func(a, b string) bool {
		ka := AppendString(nil, a)
		kb := AppendString(nil, b)
		da, rest, err := TakeString(ka)
		if err != nil || len(rest) != 0 || da != a {
			return false
		}
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStringWithNulBytes(t *testing.T) {
	cases := []string{"", "\x00", "a\x00b", "\x00\x00", "a", strings.Repeat("\x00", 10)}
	for _, s := range cases {
		enc := AppendString(nil, s)
		dec, rest, err := TakeString(enc)
		if err != nil || len(rest) != 0 || dec != s {
			t.Fatalf("round trip of %q failed: %q, rest=%d, err=%v", s, dec, len(rest), err)
		}
	}
	// Order with embedded NULs: "a" < "a\x00" < "a\x01".
	a := AppendString(nil, "a")
	b := AppendString(nil, "a\x00")
	c := AppendString(nil, "a\x01")
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("NUL-containing strings are mis-ordered")
	}
}

func TestKeyCompositeOrder(t *testing.T) {
	// Composite (string, uint64) keys sort by string then number.
	mk := func(s string, n uint64) []byte {
		return AppendUint64(AppendString(nil, s), n)
	}
	ks := [][]byte{
		mk("alpha", 5),
		mk("alpha", 10),
		mk("alphaa", 1),
		mk("beta", 0),
	}
	for i := 1; i < len(ks); i++ {
		if bytes.Compare(ks[i-1], ks[i]) >= 0 {
			t.Fatalf("composite keys out of order at %d", i)
		}
	}
	// Decode back.
	s, rest, err := TakeString(ks[1])
	if err != nil || s != "alpha" {
		t.Fatalf("TakeString = %q, %v", s, err)
	}
	if len(rest) != 8 || binary.BigEndian.Uint64(rest) != 10 {
		t.Fatalf("after the string: %x, want 10 in eight bytes", rest)
	}
}

func TestKeyDecodeErrors(t *testing.T) {
	if _, _, err := TakeString([]byte("abc")); err == nil {
		t.Fatal("TakeString accepted an unterminated buffer")
	}
	if _, _, err := TakeString([]byte{'a', 0x00, 0x07}); err == nil {
		t.Fatal("TakeString accepted a bad escape")
	}
	if _, _, err := TakeString([]byte{'a', 0x00}); err == nil {
		t.Fatal("TakeString accepted a truncated escape")
	}
}

func TestPrefixEnd(t *testing.T) {
	// prefixEnd works in place; the cases keep their inputs.
	prefixEndOf := func(prefix []byte) []byte { return prefixEnd(append([]byte(nil), prefix...)) }
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("abc"), []byte("abd")},
		{[]byte{0x01, 0xFF}, []byte{0x02}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		got := prefixEndOf(c.in)
		if !bytes.Equal(got, c.want) {
			t.Fatalf("prefixEnd(%x) = %x, want %x", c.in, got, c.want)
		}
	}
	// Property: prefix <= any extension < prefixEnd(prefix).
	f := func(prefix, suffix []byte) bool {
		if len(prefix) == 0 {
			return true
		}
		end := prefixEndOf(prefix)
		ext := append(append([]byte(nil), prefix...), suffix...)
		if bytes.Compare(prefix, ext) > 0 {
			return false
		}
		if end == nil {
			return true
		}
		return bytes.Compare(ext, end) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
