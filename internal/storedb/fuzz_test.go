package storedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeWalBatch hardens the WAL decoder against arbitrary bytes:
// it must never panic, and anything it accepts must re-encode to an
// equivalent batch.
func FuzzDecodeWalBatch(f *testing.F) {
	good := EncodeBatch(Batch{Seq: 7, Ops: []Op{
		{Key: []byte("k"), Val: []byte("v")},
		{Delete: true, Key: []byte("gone")},
	}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Add(good[:len(good)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(data)
		if err != nil {
			return
		}
		again, err := DecodeBatch(EncodeBatch(batch))
		if err != nil {
			t.Fatalf("re-encode of accepted batch rejected: %v", err)
		}
		if !sameBatch(again, batch) {
			t.Fatalf("round trip changed the batch: %+v became %+v", batch, again)
		}
	})
}

// WAL-tail mutation harness. pristineWal builds a log of n committed
// single-op batches and returns its bytes plus the per-frame end
// offsets; checkPrefixProperty writes a (possibly mutated) log to disk
// and asserts the recovery prefix property — the scan yields batches
// 1..k for some k, in order, never a torn, duplicated, or reordered
// frame — and that opening the store over it leaves a log that takes
// appends.
func pristineWal(t testing.TB, n int) (data []byte, frameEnds []int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "WAL")
	w, err := openWalWriter(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= n; seq++ {
		b := Batch{Seq: uint64(seq), Ops: []Op{
			{Key: []byte(fmt.Sprintf("key-%03d", seq)), Val: []byte(fmt.Sprintf("val-%03d", seq))},
		}}
		if _, err := w.appendGroup([]Batch{b}); err != nil {
			t.Fatal(err)
		}
		frameEnds = append(frameEnds, w.off)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, frameEnds
}

func checkPrefixProperty(t testing.TB, mutated []byte, committed int, mustStartAtOne bool) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "WAL")
	if err := os.WriteFile(path, mutated, 0o600); err != nil {
		t.Fatal(err)
	}

	// The scan must emit a contiguous ascending run of the committed
	// batches with each frame's content still bound to its sequence —
	// never a duplicated, reordered, or cross-wired one. Mutations that
	// only damage the log in place (truncation, byte corruption,
	// appended garbage) additionally keep the run anchored at 1: a true
	// prefix. A splice can fabricate a log that starts mid-history,
	// which is exactly the shape of a legitimate post-compaction log —
	// Open's snapshot sequence gate owns that case.
	var first, next uint64
	lastSeq, err := scanWalFrames(path, func(b Batch, _ []byte, _ int64) error {
		if first == 0 {
			first, next = b.Seq, b.Seq
		}
		if b.Seq != next {
			t.Fatalf("replay emitted seq %d, want %d: not contiguous", b.Seq, next)
		}
		if len(b.Ops) != 1 {
			t.Fatalf("replay emitted %d ops in batch %d, want 1", len(b.Ops), b.Seq)
		}
		wantKey := fmt.Sprintf("key-%03d", b.Seq)
		if string(b.Ops[0].Key) != wantKey {
			t.Fatalf("batch %d carries key %q, want %q: frame content reassigned", b.Seq, b.Ops[0].Key, wantKey)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if first != 0 && lastSeq != next-1 {
		t.Fatalf("replay reported lastSeq %d after emitting up to %d", lastSeq, next-1)
	}
	if lastSeq > uint64(committed) {
		t.Fatalf("replay produced seq %d from a log of %d", lastSeq, committed)
	}
	if mustStartAtOne && first > 1 {
		t.Fatalf("replay started at seq %d, want a prefix from 1", first)
	}

	// Recovery cuts the log where the scan stopped, and the log must
	// then accept appends that future recovery also reads back — the
	// recovered prefix composes with new commits.
	db, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatalf("open over the mutated log: %v", err)
	}
	if db.Seq() != lastSeq {
		t.Fatalf("open recovered seq %d, the scan %d", db.Seq(), lastSeq)
	}
	if err := putKey(db, "cont"); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	gotCont := false
	if _, err := scanWalFrames(path, func(b Batch, _ []byte, _ int64) error {
		if b.Seq == lastSeq+1 && string(b.Ops[0].Key) == "b\x00cont" {
			gotCont = true
		}
		return nil
	}); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if !gotCont {
		t.Fatal("appended batch not visible after truncated-tail recovery")
	}
}

// FuzzWALTail mutates a pristine multi-batch log — byte flips,
// truncations, duplicated and reordered frames, arbitrary splices —
// and asserts the recovery prefix property holds for every mutation.
func FuzzWALTail(f *testing.F) {
	const committed = 6
	data, ends := pristineWal(f, committed)

	// Seeds: one exemplar of each mutation class.
	f.Add(0, 0, data[:ends[2]])                                   // clean truncation at a frame boundary
	f.Add(1, int(ends[1])+5, []byte{0xff})                        // corrupt a byte mid-frame
	f.Add(2, int(ends[committed-1]), data[:ends[0]])              // duplicate frame 1 at the tail
	f.Add(2, int(ends[committed-1]), data[ends[1]:ends[2]])       // re-append frame 3 (reorder)
	f.Add(0, int(ends[committed-1])-3, []byte{})                  // torn final frame
	f.Add(2, int(ends[committed-1]), []byte{0, 0, 0, 9, 1, 2, 3}) // garbage tail

	f.Fuzz(func(t *testing.T, mode, pos int, chunk []byte) {
		mutated := append([]byte(nil), data...)
		if pos < 0 {
			pos = -pos
		}
		switch mode % 3 {
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
		case 2: // splice chunk in at pos (insert, shifting the tail)
			if pos > len(mutated) {
				pos = pos % (len(mutated) + 1)
			}
			rest := append([]byte(nil), mutated[pos:]...)
			mutated = append(append(mutated[:pos], chunk...), rest...)
		}
		checkPrefixProperty(t, mutated, committed, mode%3 == 0)
	})
}

// TestWALTruncationAtEveryOffset cuts the log after every byte offset
// and checks the prefix property for each — the deterministic
// exhaustive core of what FuzzWALTail explores.
func TestWALTruncationAtEveryOffset(t *testing.T) {
	const committed = 5
	data, _ := pristineWal(t, committed)
	for cut := 0; cut <= len(data); cut++ {
		checkPrefixProperty(t, data[:cut], committed, true)
	}
}

// TestWALCRCFlipAtEveryFrame flips one bit inside each frame's payload
// (and separately in its header) and checks that the damaged frame and
// everything after it is discarded while the frames before it survive.
func TestWALCRCFlipAtEveryFrame(t *testing.T) {
	const committed = 5
	data, ends := pristineWal(t, committed)
	start := int64(0)
	for i, end := range ends {
		for _, off := range []int64{start, start + walHeaderSize, end - 1} {
			mutated := append([]byte(nil), data...)
			mutated[off] ^= 0x40
			var next uint64 = 1
			lastSeq, err := scanWalFrames(writeTempWal(t, mutated), func(b Batch, _ []byte, _ int64) error {
				if b.Seq != next {
					t.Fatalf("frame %d flip at %d: seq %d after %d", i, off, b.Seq, next-1)
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if lastSeq > uint64(i) {
				t.Fatalf("frame %d flip at %d: damaged frame survived (lastSeq %d)", i, off, lastSeq)
			}
		}
		start = end
	}
}

// TestWALDuplicatedFrameCutsTail covers the seq-contiguity rule
// directly: a duplicated or reordered frame ends replay at the last
// good prefix instead of re-applying old operations. The duplicated
// frame has a valid CRC, so only the sequence check can catch it.
func TestWALDuplicatedFrameCutsTail(t *testing.T) {
	const committed = 4
	data, ends := pristineWal(t, committed)

	// Duplicate frame 2 (bytes ends[0]:ends[1]) at the tail.
	dup := append(append([]byte(nil), data...), data[ends[0]:ends[1]]...)
	checkPrefixProperty(t, dup, committed, true)
	lastSeq, err := scanWalFrames(writeTempWal(t, dup), skipFrames)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != committed {
		t.Fatalf("duplicated tail frame: lastSeq = %d, want %d", lastSeq, committed)
	}

	// Duplicate frame 2 in the middle: everything from the duplicate on
	// is discarded, frames 1-2 survive.
	mid := append(append([]byte(nil), data[:ends[1]]...), data[ends[0]:]...)
	lastSeq, err = scanWalFrames(writeTempWal(t, mid), skipFrames)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 2 {
		t.Fatalf("mid-log duplicate: lastSeq = %d, want 2", lastSeq)
	}

	// A skipped frame (gap) likewise cuts the tail.
	gap := append(append([]byte(nil), data[:ends[1]]...), data[ends[2]:]...)
	lastSeq, err = scanWalFrames(writeTempWal(t, gap), skipFrames)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 2 {
		t.Fatalf("sequence gap: lastSeq = %d, want 2", lastSeq)
	}
}

// TestWALForgedLengthHeader forges a frame header whose length field
// points past the end of the file, and one whose CRC matches truncated
// garbage; neither may panic or over-read.
func TestWALForgedLengthHeader(t *testing.T) {
	const committed = 3
	data, _ := pristineWal(t, committed)
	var hdr [walHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], 1<<29)
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(nil))
	forged := append(append([]byte(nil), data...), hdr[:]...)
	lastSeq, err := scanWalFrames(writeTempWal(t, forged), skipFrames)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != committed {
		t.Fatalf("forged header: lastSeq = %d, want %d", lastSeq, committed)
	}
}

// skipFrames is a scan callback for tests that only want how far the
// scan got.
func skipFrames(Batch, []byte, int64) error { return nil }

func writeTempWal(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "WAL")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzTakeString hardens the ordered-key string decoder.
func FuzzTakeString(f *testing.F) {
	f.Add(AppendString(nil, "hello"))
	f.Add(AppendString(nil, "with\x00nul"))
	f.Add([]byte{0x00})
	f.Add([]byte{'a', 0x00, 0x07})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := TakeString(data)
		if err != nil {
			return
		}
		// Accepted input: re-encoding the decoded string plus the rest
		// must reproduce the original bytes.
		re := append(AppendString(nil, s), rest...)
		if !bytes.Equal(re, data) {
			t.Fatalf("TakeString not injective: %x -> %q + %x", data, s, rest)
		}
	})
}
