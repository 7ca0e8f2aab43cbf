package storedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"softreputation/internal/frame"
)

// rawSnapshot frames the given blocks of key/value pairs as a v3
// snapshot stream under a header entry count, with no check of order or
// count: the bytes a corrupt or hostile writer could send with every
// checksum right.
func rawSnapshot(count uint64, blocks ...[][2]string) []byte {
	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	buf.Write(binary.BigEndian.AppendUint32(nil, snapshotVersion))
	var hdr [snapshotHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], 7)
	binary.BigEndian.PutUint64(hdr[16:24], count)
	buf.Write(frame.Append(nil, hdr[:]))
	for _, block := range blocks {
		var payload []byte
		for _, kv := range block {
			payload = binary.AppendUvarint(payload, uint64(len(kv[0])))
			payload = append(payload, kv[0]...)
			payload = binary.AppendUvarint(payload, uint64(len(kv[1])))
			payload = append(payload, kv[1]...)
		}
		buf.Write(frame.Append(nil, payload))
	}
	return buf.Bytes()
}

// TestSnapshotKeysStrictlyAscend: a snapshot whose keys repeat or run
// backwards, inside a block or across two, is corrupt whatever its
// checksums say — to a cold open, a streamed restore and scrub alike. The
// parent commit put such entries in arrival order: "z, a, a" under a
// count of 3 loaded with no error as a tree of 2.
func TestSnapshotKeysStrictlyAscend(t *testing.T) {
	kv := func(keys ...string) [][2]string {
		out := make([][2]string, len(keys))
		for i, k := range keys {
			out[i] = [2]string{"b\x00" + k, "v-" + k}
		}
		return out
	}
	cases := []struct {
		name   string
		count  uint64
		blocks [][][2]string
		ok     bool
	}{
		{"ascending", 3, [][][2]string{kv("a", "b"), kv("c")}, true},
		{"backwards then repeated", 3, [][][2]string{kv("z", "a", "a")}, false},
		{"repeated", 2, [][][2]string{kv("a", "a")}, false},
		{"backwards", 2, [][][2]string{kv("b", "a")}, false},
		{"backwards across blocks", 3, [][][2]string{kv("a", "c"), kv("b")}, false},
		{"repeated across blocks", 3, [][][2]string{kv("a", "b"), kv("b")}, false},
		{"a prefix after its extension", 2, [][][2]string{kv("ab", "a")}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := rawSnapshot(tc.count, tc.blocks...)
			for _, size := range []int64{int64(len(file)), -1} {
				tr, _, _, err := decodeSnapshot(bytes.NewReader(file), size)
				switch {
				case tc.ok && (err != nil || tr.Len() != int(tc.count)):
					t.Fatalf("size %d: Len %d, err %v; want %d keys", size, tr.Len(), err, tc.count)
				case !tc.ok && !errors.Is(err, ErrCorrupt):
					t.Fatalf("size %d: decoded %d keys, err %v; want ErrCorrupt", size, tr.Len(), err)
				}
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "SNAPSHOT")
			if err := os.WriteFile(path, file, 0o600); err != nil {
				t.Fatal(err)
			}
			_, _, _, unit, err := scrubSnapshotFile(path)
			switch {
			case tc.ok && err != nil:
				t.Fatalf("scrub: %v", err)
			case !tc.ok && (!errors.Is(err, ErrCorrupt) || unit != UnitSnapshotBlock):
				t.Fatalf("scrub: unit %q, err %v; want %s, ErrCorrupt", unit, err, UnitSnapshotBlock)
			}
			db, err := Open(Options{Dir: dir, CompactEvery: -1})
			if tc.ok {
				if err != nil || db.Len() != int(tc.count) {
					t.Fatalf("open: %v", err)
				}
				db.Close()
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: %v, want ErrCorrupt", err)
			}
		})
	}
}

// goldenTree is the tree the snapshot golden is taken over: enough
// entries of mixed sizes, empty values among them, to fill three blocks.
func goldenTree() tree {
	t := tree{}.begin()
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("g\x00%05d", i*7919%100000)
		t.put([]byte(k), bytes.Repeat([]byte{byte(i)}, i%97))
	}
	t.put([]byte("e\x00"), nil)
	return t
}

// TestSnapshotBytesGolden pins encodeSnapshot's bytes for a fixed tree,
// as taken at the commit before leaves became byte slabs, and checks
// that a tree decoded from them (whose leaves alias the buffer they were
// read into, across block seams) encodes to them again.
func TestSnapshotBytesGolden(t *testing.T) {
	const (
		wantLen = 170757
		wantSum = "aab7eb5d89b5a6c08e517d28ec1b320577b385fa805eac43a8e1af774a57c4af"
	)
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, goldenTree(), 42, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != wantLen || got != wantSum {
		t.Errorf("snapshot bytes moved: %d bytes, sha256 %s; want %d, %s", buf.Len(), got, wantLen, wantSum)
	}
	// From a file and from a stream (size unknown: read whole first).
	for _, size := range []int64{int64(buf.Len()), -1} {
		loaded, seq, digest, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), size)
		if err != nil || seq != 42 || digest != 0xfeedface {
			t.Fatalf("size %d: decode: seq %d digest %x err %v", size, seq, digest, err)
		}
		checkInvariants(t, loaded)
		var again bytes.Buffer
		if err := encodeSnapshot(&again, loaded, 42, 0xfeedface); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("size %d: a decoded tree does not encode to the bytes it was decoded from", size)
		}
	}
}

// benchLikeSnapshot encodes n entries whose buckets, key sizes and
// value sizes follow the benchmark's seed-1 data dir (356,602 entries,
// 59 key+value bytes each on average): ratings and their user index,
// comments and their software index, software records, vendor index and
// scores in those proportions, and a few users, emails and vendor
// scores. It returns the stream and the key+value bytes it holds.
func benchLikeSnapshot(tb testing.TB, n int) ([]byte, int) {
	tb.Helper()
	mix := []struct {
		bucket       string
		share        float64
		keyLen, vLen int // the key's length includes bucket and separator
	}{
		{"r", 0.2075, 32, 15}, {"ru", 0.2075, 33, 0}, {"c", 0.2075, 10, 115}, {"cs", 0.2075, 31, 0},
		{"s", 0.056, 22, 72}, {"sv", 0.056, 39, 0}, {"sc", 0.056, 23, 21},
		{"u", 0.0006, 10, 237}, {"e", 0.0006, 66, 8}, {"vs", 0.0006, 17, 11},
	}
	src := tree{}.begin()
	kv := 0
	for _, m := range mix {
		val := bytes.Repeat([]byte{'v'}, m.vLen)
		for i := 0; i < int(m.share*float64(n)); i++ {
			k := fmt.Appendf(nil, "%s\x00%0*d", m.bucket, m.keyLen-len(m.bucket)-1, i)
			src.put(k, val)
			kv += len(k) + len(val)
		}
	}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, src, 1, 0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), kv
}

// TestLoadedIndexFootprint pins what the index a snapshot loads into
// costs beyond the keys and values it holds, live after a collection,
// and what the load allocates on the way. Parent commit (a 48-byte
// {key, value} item a key, two pointers, in leaves half full): 72 B an
// entry live, about 5 x the snapshot allocated.
func TestLoadedIndexFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under the race detector")
	}
	const n = 100000
	snap, kv := benchLikeSnapshot(t, n)
	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, _, _, err := decodeSnapshot(bytes.NewReader(snap), int64(len(snap)))
	runtime.ReadMemStats(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perEntry := float64(live-int64(kv)) / float64(tr.Len())
	allocated := float64(loaded.TotalAlloc-before.TotalAlloc) / float64(len(snap))
	t.Logf("%d entries, %d key+value bytes, %d snapshot bytes: %.1f B an entry live beyond them, %.2f x the snapshot allocated",
		tr.Len(), kv, len(snap), perEntry, allocated)
	if perEntry > 16 {
		t.Errorf("%.1f B of index an entry, pinned at 16", perEntry)
	}
	if allocated > 1.3 {
		t.Errorf("the load allocated %.2f x the snapshot, pinned at 1.3", allocated)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(snap) // counted in before, so it must still be there after
}
