package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// fuzzLimit is the payload bound the fuzzer reads under: as large as the
// WAL's, so a forged length is believed up to a gigabyte.
const fuzzLimit = 1 << 30

func reader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// TestAppendSplitRead: frames built by Append and by Begin and End come
// back whole through Split and through Read, in order, Read ending with
// io.EOF at the clean end of the stream.
func TestAppendSplitRead(t *testing.T) {
	payloads := [][]byte{[]byte("a"), bytes.Repeat([]byte("xy"), 5000), []byte("last")}
	var stream []byte
	for i, p := range payloads {
		if i == 1 {
			start := len(stream)
			stream = append(Begin(stream), p...)
			End(stream[start:])
		} else {
			stream = Append(stream, p)
		}
	}
	if got := binary.BigEndian.Uint32(stream); got != 1 {
		t.Fatalf("first header length %d, want 1", got)
	}
	rest := stream
	r := reader(stream)
	var buf []byte
	for i, want := range payloads {
		var p []byte
		var err error
		if p, rest, err = Split(rest, fuzzLimit); err != nil || !bytes.Equal(p, want) {
			t.Fatalf("Split frame %d: %q, %v", i, p, err)
		}
		if buf, err = Read(r, buf, fuzzLimit); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("Read frame %d: %v", i, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	if _, err := Read(r, buf, fuzzLimit); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestRejects: a frame cut at any byte (a torn header or a torn
// payload), one whose CRC does not match, one of length zero and one
// longer than the caller's bound are refused by Split and Read alike,
// with the texts the wire protocol's bad-request answers carry.
func TestRejects(t *testing.T) {
	f := Append(nil, []byte("payload"))
	for cut := 1; cut < len(f); cut++ {
		_, _, serr := Split(f[:cut], fuzzLimit)
		_, rerr := Read(reader(f[:cut]), nil, fuzzLimit)
		want, rwant := "torn payload", "torn payload: unexpected EOF"
		switch {
		case cut < HeaderSize:
			want, rwant = "short frame header", "torn header: EOF"
		case cut == HeaderSize:
			rwant = "torn payload: EOF"
		}
		if serr == nil || serr.Error() != want || rerr == nil || rerr.Error() != rwant {
			t.Fatalf("cut at %d: Split %v, Read %v", cut, serr, rerr)
		}
	}
	for bit := 0; bit < 32; bit++ {
		bad := bytes.Clone(f)
		bad[4+bit/8] ^= 1 << (bit % 8)
		_, _, serr := Split(bad, fuzzLimit)
		_, rerr := Read(reader(bad), nil, fuzzLimit)
		if !errors.Is(serr, ErrCRC) || !errors.Is(rerr, ErrCRC) {
			t.Fatalf("crc bit %d flipped: Split %v, Read %v", bit, serr, rerr)
		}
	}
	for _, c := range []struct {
		length uint32
		limit  int
		want   string
	}{
		{0, fuzzLimit, "length 0"},
		{8, 7, "length 8"},
		{1 << 31, fuzzLimit, "length 2147483648"},
		{8, -1, "length 8"},
	} {
		bad := bytes.Clone(f)
		binary.BigEndian.PutUint32(bad, c.length)
		_, _, serr := Split(bad, c.limit)
		_, rerr := Read(reader(bad), nil, c.limit)
		if serr == nil || serr.Error() != c.want || rerr == nil || rerr.Error() != c.want {
			t.Fatalf("length %d under %d: Split %v, Read %v", c.length, c.limit, serr, rerr)
		}
	}
	if _, err := Read(reader(nil), nil, fuzzLimit); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestReadAllocPin: a header that claims more than the reader's bound is
// refused before its payload is allocated (what it allocates is the
// error); a header that claims the bound and is followed by a few bytes
// allocates for those bytes, not for the claim; and a stream of frames
// read into one buffer allocates nothing once it has grown.
func TestReadAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const limit = 1 << 20
	f := Append(nil, make([]byte, 100))
	forged := bytes.Clone(f)
	binary.BigEndian.PutUint32(forged[0:4], 1<<31)
	src, stream := bytes.NewReader(nil), bufio.NewReader(nil)
	var buf []byte
	read := func(in []byte) func() {
		return func() {
			src.Reset(in)
			stream.Reset(src)
			if p, err := Read(stream, buf, limit); err == nil {
				buf = p
			}
		}
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read(forged)()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256 {
		t.Errorf("a forged length allocated %d bytes a read", per)
	}
	claim := binary.BigEndian.AppendUint32(nil, limit)
	claim = append(binary.BigEndian.AppendUint32(claim, 0), make([]byte, 100)...)
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read(claim)()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Errorf("a header claiming %d bytes, then 100, allocated %d bytes a read", limit, per)
	}
	if got := testing.AllocsPerRun(runs, read(f)); got != 0 {
		t.Errorf("%.1f allocations a frame read into a grown buffer, want 0", got)
	}
}

// FuzzFrame holds the codec to three things. Any payload Append frames
// comes back unchanged through Split and Read. On any input, Split and
// Read agree: the same payload and the same bytes after it, or both
// refuse (and both say so with ErrCRC when the CRC is what failed). And
// Read allocates for the bytes that arrived, not for the length a header
// claims: its buffer is at most the bytes present plus one growth step,
// so with the buffers it outgrew it allocates under four times the
// input, whatever the header forges. TotalAlloc counts the whole
// process, the fuzz worker's own traffic included, hence the 64 KiB of
// slack.
func FuzzFrame(f *testing.F) {
	for _, seed := range [][]byte{
		Append(nil, []byte("x")),
		Append(Append(nil, []byte("first")), bytes.Repeat([]byte{7}, 300)),
		Append(nil, make([]byte, 100))[:50],
		binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1<<28), 0),
		{0, 0, 0, 0, 0, 0, 0, 0, 1},
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			framed := Append([]byte("prefix"), data)[len("prefix"):]
			p, rest, err := Split(framed, len(data))
			if err != nil || !bytes.Equal(p, data) || len(rest) != 0 {
				t.Fatalf("Split of an Append: %v", err)
			}
			r := reader(framed)
			if p, err = Read(r, make([]byte, 0, 3), len(data)); err != nil || !bytes.Equal(p, data) {
				t.Fatalf("Read of an Append: %v", err)
			}
			if _, err := Read(r, nil, len(data)); err != io.EOF {
				t.Fatalf("after an Append's frame: %v, want io.EOF", err)
			}
		}

		sp, srest, serr := Split(data, fuzzLimit)
		r := reader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rp, rerr := Read(r, nil, fuzzLimit)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; !raceEnabled && grew > uint64(4*len(data))+64<<10 {
			t.Fatalf("Read of %d bytes allocated %d", len(data), grew)
		}
		if (serr == nil) != (rerr == nil) || errors.Is(serr, ErrCRC) != errors.Is(rerr, ErrCRC) {
			t.Fatalf("Split: %v; Read: %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		rrest, _ := io.ReadAll(r)
		if !bytes.Equal(sp, rp) || !bytes.Equal(srest, rrest) {
			t.Fatalf("Split and Read disagree: %q+%q, %q+%q", sp, srest, rp, rrest)
		}
	})
}
