package storedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// pristineSnapshot encodes a multi-block v3 snapshot and returns its
// bytes. Values are sized so the stream spans several bucket blocks
// when blockTarget-sized, but here entries are small and the interest
// is structural: header block plus at least one bucket block.
func pristineSnapshot(tb testing.TB, entries int) []byte {
	tb.Helper()
	var tr tree
	for i := 0; i < entries; i++ {
		k := []byte(fmt.Sprintf("b\x00key-%04d", i))
		v := bytes.Repeat([]byte{byte(i)}, i%53)
		tr = tr.Put(k, v)
	}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, tr, uint64(entries), 0x1234_5678_9abc_def0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// legacySnapshot hand-builds a well-formed snapshot in the retired
// single-trailer layout: [4 version][8 seq]([8 digest] in v2)[8 count],
// uvarint-prefixed entries, one CRC-32 over everything after the magic.
// No code writes this any more; it is the "old but valid-looking" input
// every entry point must reject.
func legacySnapshot(version uint32) []byte {
	body := binary.BigEndian.AppendUint32(nil, version)
	body = binary.BigEndian.AppendUint64(body, 7) // seq
	if version >= 2 {
		body = binary.BigEndian.AppendUint64(body, 0xfeed) // digest
	}
	body = binary.BigEndian.AppendUint64(body, 1) // entry count
	body = append(body, 1, 'k', 1, 'v')
	file := append(append([]byte(nil), snapshotMagic[:]...), body...)
	return binary.BigEndian.AppendUint32(file, crc32.ChecksumIEEE(body))
}

// allocatedBy returns the heap bytes allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotForeignVersionRejected pins the format edge: any version
// but the current one is ErrCorrupt on every entry point — cold Open, a
// streamed restore, and scrub (as a header fault) — and is rejected at
// the version field, before a length laid out by the foreign format is
// trusted. The forged files carry a header-block length of
// maxSnapshotBlock, the largest a current-version reader would accept:
// believing it costs a 64 MiB buffer, so the allocation bound catches a
// reader that looks past the version.
func TestSnapshotForeignVersionRejected(t *testing.T) {
	forged := func(version uint32) []byte {
		file := pristineSnapshot(t, 12)
		binary.BigEndian.PutUint32(file[8:12], version)
		binary.BigEndian.PutUint32(file[12:16], maxSnapshotBlock)
		return file
	}
	cases := []struct {
		name    string
		version uint32
		file    []byte
	}{
		{"v1-well-formed", 1, legacySnapshot(1)},
		{"v2-well-formed", 2, legacySnapshot(2)},
		{"v1-forged-length", 1, forged(1)},
		{"v2-forged-length", 2, forged(2)},
		{"v4-forged-length", 4, forged(4)},
		{"vmax-forged-length", 0xFFFFFFFF, forged(0xFFFFFFFF)},
	}
	const allocBound = 4 << 20
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := fmt.Sprintf("unsupported snapshot version %d", tc.version)
			check := func(entry string, err error, alloc uint64) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err = %v, want ErrCorrupt %q", entry, err, want)
				}
				if alloc > allocBound {
					t.Fatalf("%s: allocated %d bytes rejecting a foreign version", entry, alloc)
				}
			}

			// Scrub: a healthy store whose snapshot is swapped for the
			// foreign file under it.
			dir := t.TempDir()
			db := scrubTestDB(t, dir)
			if err := os.WriteFile(filepath.Join(dir, "SNAPSHOT"), tc.file, 0o600); err != nil {
				t.Fatal(err)
			}
			var rep ScrubReport
			var err error
			alloc := allocatedBy(func() { rep, err = db.Scrub(context.Background()) })
			check("scrub", err, alloc)
			if rep.Clean || rep.Unit != UnitSnapshotHeader || !db.Corrupt() {
				t.Fatalf("scrub report = %+v, corrupt = %v; want unit %s", rep, db.Corrupt(), UnitSnapshotHeader)
			}
			db.Close()

			// Cold open of the same directory.
			alloc = allocatedBy(func() { _, err = Open(Options{Dir: dir}) })
			check("open", err, alloc)

			// Streamed restore (replication bootstrap, repair): size unknown.
			fresh, ferr := Open(Options{})
			if ferr != nil {
				t.Fatal(ferr)
			}
			defer fresh.Close()
			alloc = allocatedBy(func() { _, err = fresh.RestoreSnapshotFrom(bytes.NewReader(tc.file)) })
			check("restore", err, alloc)
			if fresh.Len() != 0 || fresh.Seq() != 0 {
				t.Fatal("foreign-version stream partially installed")
			}
		})
	}
}

// mutateSnapshot applies one mutation class to a copy of data. The
// classes mirror FuzzWALTail's — truncation, overwrite, splice — plus
// replacement, where chunk stands in for the whole file.
func mutateSnapshot(data []byte, mode, pos int, chunk []byte) []byte {
	mutated := append([]byte(nil), data...)
	if pos < 0 {
		pos = -pos
	}
	switch mode % 4 {
	case 3: // a different file altogether
		return append([]byte(nil), chunk...)
	case 0: // truncate at pos
		if pos > len(mutated) {
			pos = len(mutated)
		}
		mutated = mutated[:pos]
	case 1: // overwrite bytes at pos with chunk
		if pos >= len(mutated) {
			pos = pos % (len(mutated) + 1)
		}
		for i, c := range chunk {
			if pos+i >= len(mutated) {
				break
			}
			mutated[pos+i] = c
		}
	case 2: // splice chunk in at pos, shifting the tail
		if pos > len(mutated) {
			pos = pos % (len(mutated) + 1)
		}
		rest := append([]byte(nil), mutated[pos:]...)
		mutated = append(append(mutated[:pos], chunk...), rest...)
	}
	return mutated
}

// FuzzSnapshot mutates a pristine v3 snapshot stream — truncations,
// byte flips in every region (magic, version, block framing, payloads),
// splices — and asserts the decoder's contract for every mutation:
// it never panics, never silently accepts damage to checksummed bytes,
// reports every rejection as ErrCorrupt, never accepts keys that are not
// strictly ascending or a tree of other than the header's count, and
// agrees with the scrub verifier on whether the bytes are intact. The
// file-sized decode and the unbounded stream decode (a replication
// bootstrap body) must also agree.
func FuzzSnapshot(f *testing.F) {
	data := pristineSnapshot(f, 40)

	// Deterministic mutator corpus: one exemplar of each damage class
	// the scrub matrix and the repair path care about.
	f.Add(0, 0, []byte{})                                                        // empty file
	f.Add(0, len(data)/2, []byte{})                                              // truncated mid-block
	f.Add(0, snapHeaderPayloadOff+snapshotHeaderLen, []byte{})                   // header only, no bucket blocks
	f.Add(1, 0, []byte{'X'})                                                     // damaged magic
	f.Add(1, 9, []byte{0xff})                                                    // damaged version field
	f.Add(1, 12, []byte{0xff, 0xff, 0xff, 0xff})                                 // forged header-block length
	f.Add(1, snapHeaderPayloadOff+1, []byte{0x01})                               // bit flip in header payload
	f.Add(1, snapHeaderPayloadOff+17, []byte{0xff})                              // forged entry count
	f.Add(1, snapFirstBlockOff-8, []byte{0x7f, 0xff})                            // forged bucket-block length
	f.Add(1, snapFirstBlockOff+2, []byte{0x80})                                  // bit flip in bucket payload
	f.Add(2, snapFirstBlockOff, []byte{0, 0, 0, 4, 1, 2})                        // spliced garbage block
	f.Add(2, len(data), []byte{0xde, 0xad})                                      // trailing garbage
	f.Add(3, 0, legacySnapshot(2))                                               // well-formed file in the retired v2 layout
	f.Add(3, 0, rawSnapshot(3, [][2]string{{"z", "1"}, {"a", "2"}, {"a", "3"}})) // every checksum right, keys out of order

	f.Fuzz(func(t *testing.T, mode, pos int, chunk []byte) {
		mutated := mutateSnapshot(data, mode, pos, chunk)

		tr, seq, dig, err := decodeSnapshot(bytes.NewReader(mutated), int64(len(mutated)))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
		}
		if err == nil && binary.BigEndian.Uint32(mutated[8:12]) != snapshotVersion {
			t.Fatalf("decode accepted snapshot version %d", binary.BigEndian.Uint32(mutated[8:12]))
		}
		if err == nil {
			n, last := 0, []byte(nil)
			tr.Ascend(nil, nil, func(k, _ []byte) bool {
				if n > 0 && bytes.Compare(k, last) <= 0 {
					t.Fatalf("decode accepted key %q after %q", k, last)
				}
				n, last = n+1, k
				return true
			})
			if count := binary.BigEndian.Uint64(mutated[snapHeaderPayloadOff+16:]); n != tr.Len() || uint64(n) != count {
				t.Fatalf("decode accepted %d keys (Len %d) under a header count of %d", n, tr.Len(), count)
			}
		}
		if err == nil && bytes.Equal(mutated, data) {
			if seq != 40 || dig != 0x1234_5678_9abc_def0 || tr.Len() != 40 {
				t.Fatalf("pristine decode: seq=%d dig=%x len=%d", seq, dig, tr.Len())
			}
		}

		// Stream mode (replication bootstrap: size unknown) must reach
		// the same verdict; the budget only tightens allocations.
		_, _, _, serr := decodeSnapshot(bytes.NewReader(mutated), -1)
		if (serr == nil) != (err == nil) {
			t.Fatalf("stream decode verdict %v, file decode verdict %v", serr, err)
		}

		// The scrub verifier walks the same checksums without building a
		// tree; it must agree on intact vs damaged.
		path := filepath.Join(t.TempDir(), "SNAPSHOT")
		if werr := os.WriteFile(path, mutated, 0o600); werr != nil {
			t.Fatal(werr)
		}
		_, _, _, unit, scrubErr := scrubSnapshotFile(path)
		if (scrubErr == nil) != (err == nil) {
			t.Fatalf("scrub verdict %v (unit %q), decode verdict %v", scrubErr, unit, err)
		}
		if scrubErr != nil && unit != UnitSnapshotHeader && unit != UnitSnapshotBlock {
			t.Fatalf("scrub unit = %q", unit)
		}
	})
}

// TestSnapshotFlipAtEveryByte is the deterministic exhaustive core of
// FuzzSnapshot: one bit flip at every byte offset of a small snapshot
// must be rejected by both the decoder and the scrub verifier — no
// byte of the stream is outside checksum coverage.
func TestSnapshotFlipAtEveryByte(t *testing.T) {
	data := pristineSnapshot(t, 12)
	dir := t.TempDir()
	for off := 0; off < len(data); off++ {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x10
		if _, _, _, err := decodeSnapshot(bytes.NewReader(mutated), int64(len(mutated))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: decode accepted damaged stream (err=%v)", off, err)
		}
		path := filepath.Join(dir, fmt.Sprintf("SNAP-%d", off))
		if err := os.WriteFile(path, mutated, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := scrubSnapshotFile(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: scrub accepted damaged file (err=%v)", off, err)
		}
	}
}

// TestSnapshotTruncationAtEveryOffset cuts the stream after every byte
// and checks the decoder rejects each cut as corrupt — a partial
// snapshot must never install.
func TestSnapshotTruncationAtEveryOffset(t *testing.T) {
	data := pristineSnapshot(t, 12)
	for cut := 0; cut < len(data); cut++ {
		if _, _, _, err := decodeSnapshot(bytes.NewReader(data[:cut]), int64(cut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: decode accepted truncated stream (err=%v)", cut, err)
		}
	}
}
