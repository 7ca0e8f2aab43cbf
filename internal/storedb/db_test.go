package storedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTemp(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func put(t *testing.T, db *DB, bucket, k, v string) {
	t.Helper()
	err := db.Update(func(tx *Tx) error {
		return tx.MustBucket(bucket).Put([]byte(k), []byte(v))
	})
	if err != nil {
		t.Fatalf("put %s/%s: %v", bucket, k, err)
	}
}

func get(t *testing.T, db *DB, bucket, k string) (string, bool) {
	t.Helper()
	var out string
	var ok bool
	err := db.View(func(tx *Tx) error {
		v, found := tx.MustBucket(bucket).Get([]byte(k))
		out, ok = string(v), found
		return nil
	})
	if err != nil {
		t.Fatalf("get %s/%s: %v", bucket, k, err)
	}
	return out, ok
}

func TestDBInMemoryBasic(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put(t, db, "b", "k", "v")
	if v, ok := get(t, db, "b", "k"); !ok || v != "v" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestDBPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(t, db, "users", fmt.Sprintf("u%03d", i), fmt.Sprintf("data%d", i))
	}
	// Delete a few, overwrite a few.
	err = db.Update(func(tx *Tx) error {
		b := tx.MustBucket("users")
		if err := b.Delete([]byte("u010")); err != nil {
			return err
		}
		return b.Put([]byte("u020"), []byte("updated"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 99 {
		t.Fatalf("Len after reopen = %d, want 99", db2.Len())
	}
	if _, ok := get(t, db2, "users", "u010"); ok {
		t.Fatal("deleted key survived reopen")
	}
	if v, _ := get(t, db2, "users", "u020"); v != "updated" {
		t.Fatalf("u020 = %q after reopen", v)
	}
}

func TestDBCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction writes land in the fresh WAL.
	for i := 50; i < 60; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 60 {
		t.Fatalf("Len = %d, want 60", db2.Len())
	}
}

func TestDBAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	// After 25 commits with CompactEvery=10 the background compactor
	// must produce a snapshot; it runs off the commit path, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for db.SnapSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never produced a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "SNAPSHOT")); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "WAL")); err != nil {
		t.Fatalf("wal missing: %v", err)
	}
	db.Close()
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 25 {
		t.Fatalf("Len = %d, want 25", db2.Len())
	}
}

// TestSwapKeepsAckedTailPastRot runs a background compaction's two phases
// by hand: phase 1 at seq 5, five more acked commits, then the swap, with
// a byte of the 8th frame flipped on disk in between (or not). The parent
// commit re-read the log to carry the tail, stopped at the bad CRC
// without a word and swapped in a log missing batches 8–10, so they and
// the next commit acked after the swap were gone on reopen.
func TestSwapKeepsAckedTailPastRot(t *testing.T) {
	for _, rot := range []bool{false, true} {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
		}
		db.compactMu.Lock()
		db.commitMu.Lock()
		tr, cover, digest, off := *db.current.Load(), db.seq.Load(), db.chainDigest.Load(), db.wal.off
		db.commitMu.Unlock()
		if err := writeSnapshot(dir, tr, cover, digest); err != nil {
			t.Fatal(err)
		}
		for i := 6; i <= 10; i++ {
			put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
		}
		if rot {
			var at int64 // where the frame of batch cover+3 begins
			if _, err := scanWalFrames(db.walPath(), func(b Batch, _ []byte, end int64) error {
				if b.Seq == cover+2 {
					at = end
				}
				return nil
			}); err != nil || at == 0 {
				t.Fatalf("frame of batch %d not found: %v", cover+3, err)
			}
			if err := FlipFileBit(db.walPath(), (at+walHeaderSize+12)*8); err != nil {
				t.Fatal(err)
			}
		}
		db.commitMu.Lock()
		err = db.swapWalTailLocked(cover, digest, off)
		pending, snap := db.pending, db.SnapSeq()
		db.commitMu.Unlock()
		db.compactMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		// The tail carried, or a snapshot of the whole tree in its place.
		wantPending, wantSnap := 5, cover
		if rot {
			wantPending, wantSnap = 0, cover+5
		}
		if pending != wantPending || snap != wantSnap {
			t.Errorf("rot %v: %d pending, snapshot at %d; want %d and %d", rot, pending, snap, wantPending, wantSnap)
		}
		put(t, db, "b", "k11", "v") // acked after the swap
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(Options{Dir: dir, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 11; i++ {
			if _, ok := get(t, db2, "b", fmt.Sprintf("k%02d", i)); !ok {
				t.Errorf("rot %v: acked key k%02d lost across the swap and a reopen", rot, i)
			}
		}
		db2.Close()
	}
}

// TestBucketPastItsViewReadsNothing: View marks its transaction done
// without a defer, so that it inlines; a Bucket kept past the View still
// reads nothing, and the transaction is done after a failing fn too.
func TestBucketPastItsViewReadsNothing(t *testing.T) {
	db := openTemp(t, Options{})
	put(t, db, "b", "k", "v")
	for _, fail := range []error{nil, errors.New("fn failed")} {
		var kept *Bucket
		if err := db.View(func(tx *Tx) error {
			kept = tx.MustBucket("b")
			if _, ok := kept.Get([]byte("k")); !ok {
				t.Fatal("the bucket reads nothing inside its View")
			}
			return fail
		}); err != fail {
			t.Fatalf("View = %v, want %v", err, fail)
		}
		if v, ok := kept.Get([]byte("k")); ok {
			t.Errorf("a bucket kept past its View read %q", v)
		}
		n := 0
		kept.ForEach(func(_, _ []byte) bool { n++; return true })
		if n != 0 {
			t.Errorf("a bucket kept past its View visited %d keys", n)
		}
	}
}

func TestDBTornWalTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	db.Close()

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	walPath := filepath.Join(dir, "WAL")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer db2.Close()
	// The final commit is lost; everything before it survives.
	if db2.Len() != 19 {
		t.Fatalf("Len = %d, want 19 after torn tail", db2.Len())
	}
	// And the store keeps accepting writes afterwards.
	put(t, db2, "b", "k99", "v")
	if v, ok := get(t, db2, "b", "k99"); !ok || v != "v" {
		t.Fatal("write after tail-truncation recovery failed")
	}
}

func TestDBCorruptWalRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(t, db, "b", fmt.Sprintf("k%d", i), "v")
	}
	db.Close()

	// Flip a payload byte in the middle of the log: replay keeps the
	// prefix before the damaged record.
	walPath := filepath.Join(dir, "WAL")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o600); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with corrupt record: %v", err)
	}
	defer db2.Close()
	if db2.Len() >= 10 || db2.Len() == 0 {
		t.Fatalf("Len = %d, want a non-empty strict prefix of 10", db2.Len())
	}
}

func TestDBCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put(t, db, "b", "k", "v")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	snapPath := filepath.Join(dir, "SNAPSHOT")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x01 // damage an entry byte; CRC must catch it
	if err := os.WriteFile(snapPath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestDBRollbackOnError(t *testing.T) {
	db := openTemp(t, Options{})
	put(t, db, "b", "k", "v")
	sentinel := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		b := tx.MustBucket("b")
		if err := b.Put([]byte("k"), []byte("changed")); err != nil {
			return err
		}
		if err := b.Put([]byte("k2"), []byte("new")); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update err = %v", err)
	}
	if v, _ := get(t, db, "b", "k"); v != "v" {
		t.Fatalf("k = %q after rollback, want v", v)
	}
	if _, ok := get(t, db, "b", "k2"); ok {
		t.Fatal("k2 exists after rollback")
	}
}

func TestDBBucketIsolation(t *testing.T) {
	db := openTemp(t, Options{})
	put(t, db, "alpha", "k", "va")
	put(t, db, "beta", "k", "vb")
	// A bucket whose name is a prefix of another must not see its keys.
	put(t, db, "alph", "x", "vx")
	if v, _ := get(t, db, "alpha", "k"); v != "va" {
		t.Fatalf("alpha/k = %q", v)
	}
	if v, _ := get(t, db, "beta", "k"); v != "vb" {
		t.Fatalf("beta/k = %q", v)
	}
	db.View(func(tx *Tx) error {
		n := 0
		tx.MustBucket("alph").ForEach(func(k, v []byte) bool { n++; return true })
		if n != 1 {
			t.Fatalf("bucket alph sees %d keys, want 1", n)
		}
		return nil
	})
}

// TestDBBucketScansAndBorrowedSlices covers what the read path relies on
// from a bucket handle: range bounds built in on-stack scratch (keys
// shorter and longer than it, an all-0xFF prefix whose end carries into
// the bucket's separator), and that slices handed out by Get and Range
// stay intact after later commits replace or delete their keys.
func TestDBBucketScansAndBorrowedSlices(t *testing.T) {
	db := openTemp(t, Options{})
	long := strings.Repeat("k", 3*keyScratch)
	err := db.Update(func(tx *Tx) error {
		b := tx.MustBucket("b")
		for _, k := range []string{"a", "\xff\xff", "\xff\xff\x01", long, long + "1", long + "2"} {
			if err := b.Put([]byte(k), []byte("v:"+k)); err != nil {
				return err
			}
		}
		return tx.MustBucket("c").Put([]byte("other"), []byte("bucket"))
	})
	if err != nil {
		t.Fatal(err)
	}

	var keptKeys, keptVals [][]byte
	var keptGet []byte
	db.View(func(tx *Tx) error {
		b := tx.MustBucket("b")
		scan := func(name string, want []string, run func(fn func(k, v []byte) bool)) {
			t.Helper()
			var got []string
			run(func(k, v []byte) bool {
				if string(v) != "v:"+string(k) {
					t.Errorf("%s: key %q carries value %q", name, k, v)
				}
				got = append(got, string(k))
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s visited %q, want %q", name, got, want)
			}
		}
		scan("RangePrefix(0xFFFF)", []string{"\xff\xff", "\xff\xff\x01"}, func(fn func(k, v []byte) bool) {
			b.RangePrefix([]byte("\xff\xff"), fn)
		})
		scan("RangePrefix(long)", []string{long, long + "1", long + "2"}, func(fn func(k, v []byte) bool) {
			b.RangePrefix([]byte(long), fn)
		})
		scan("Range(long, long2)", []string{long, long + "1"}, func(fn func(k, v []byte) bool) {
			b.Range([]byte(long), []byte(long+"2"), fn)
		})
		scan("ForEach", []string{"a", long, long + "1", long + "2", "\xff\xff", "\xff\xff\x01"}, b.ForEach)
		if n := b.Count([]byte(long)); n != 3 {
			t.Errorf("Count(long) = %d, want 3", n)
		}

		b.ForEach(func(k, v []byte) bool {
			keptKeys, keptVals = append(keptKeys, k), append(keptVals, v)
			return true
		})
		keptGet, _ = b.Get([]byte(long))
		return nil
	})

	// Replace and delete everything the kept slices came from.
	err = db.Update(func(tx *Tx) error {
		b := tx.MustBucket("b")
		for i, k := range keptKeys {
			if i%2 == 0 {
				if err := b.Delete(k); err != nil {
					return err
				}
			} else if err := b.Put(k, []byte("overwritten")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keptKeys {
		if string(keptVals[i]) != "v:"+string(k) {
			t.Errorf("slices kept from Range changed under later commits: key %q, value %q", k, keptVals[i])
		}
	}
	if string(keptGet) != "v:"+long {
		t.Errorf("slice kept from Get changed under a later commit: %q", keptGet)
	}
}

func TestDBBucketNameValidation(t *testing.T) {
	db := openTemp(t, Options{})
	db.View(func(tx *Tx) error {
		for _, name := range []string{"", "a\x00b"} {
			func() {
				defer func() {
					if r := recover(); r != ErrBucketName {
						t.Fatalf("name %q: panic %v, want %v", name, r, ErrBucketName)
					}
				}()
				tx.MustBucket(name)
			}()
		}
		return nil
	})
}

func TestDBReadOnlyTxRejectsWrites(t *testing.T) {
	db := openTemp(t, Options{})
	db.View(func(tx *Tx) error {
		b := tx.MustBucket("b")
		if err := b.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Put in View err = %v", err)
		}
		if err := b.Delete([]byte("k")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Delete in View err = %v", err)
		}
		return nil
	})
}

func TestDBEmptyKeyRejected(t *testing.T) {
	db := openTemp(t, Options{})
	err := db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put(nil, []byte("v"))
	})
	if !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key err = %v", err)
	}
}

func TestDBClosed(t *testing.T) {
	db := openTemp(t, Options{})
	db.Close()
	if err := db.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after Close err = %v", err)
	}
	if err := db.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close err = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close err = %v", err)
	}
}

func TestDBSnapshotIsolation(t *testing.T) {
	db := openTemp(t, Options{})
	put(t, db, "b", "k", "v0")

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)

	go func() {
		done <- db.View(func(tx *Tx) error {
			b := tx.MustBucket("b")
			v, _ := b.Get([]byte("k"))
			if string(v) != "v0" {
				return fmt.Errorf("first read = %q", v)
			}
			close(started)
			<-release
			// After the concurrent write commits, this tx still sees v0.
			v, _ = b.Get([]byte("k"))
			if string(v) != "v0" {
				return fmt.Errorf("snapshot read = %q, want v0", v)
			}
			return nil
		})
	}()

	<-started
	put(t, db, "b", "k", "v1")
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := get(t, db, "b", "k"); v != "v1" {
		t.Fatalf("post-commit read = %q", v)
	}
}

func TestDBConcurrentReadersAndWriter(t *testing.T) {
	db := openTemp(t, Options{})
	const writes = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.View(func(tx *Tx) error {
					// Iteration must always see internally consistent
					// pairs (key i maps to value i).
					ok := true
					tx.MustBucket("b").ForEach(func(k, v []byte) bool {
						if !bytes.Equal(k[1:], v) { // key "kNNN" vs value "NNN"
							ok = false
							return false
						}
						return true
					})
					if !ok {
						return errors.New("inconsistent pair observed")
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for i := 0; i < writes; i++ {
		s := fmt.Sprintf("%05d", i)
		put(t, db, "b", "k"+s, s)
	}
	close(stop)
	wg.Wait()
}

func TestWalBatchRoundTrip(t *testing.T) {
	b := Batch{
		Seq: 42,
		Ops: []Op{
			{Key: []byte("k1"), Val: []byte("v1")},
			{Delete: true, Key: []byte("k2")},
			{Key: []byte{}, Val: []byte{}},
		},
	}
	dec, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != 42 || len(dec.Ops) != 3 {
		t.Fatalf("decoded seq=%d ops=%d", dec.Seq, len(dec.Ops))
	}
	if dec.Ops[0].Delete || string(dec.Ops[0].Key) != "k1" || string(dec.Ops[0].Val) != "v1" {
		t.Fatalf("op0 = %+v", dec.Ops[0])
	}
	if !dec.Ops[1].Delete || string(dec.Ops[1].Key) != "k2" || dec.Ops[1].Val != nil {
		t.Fatalf("op1 = %+v", dec.Ops[1])
	}
}

func TestWalBatchDecodeErrors(t *testing.T) {
	good := EncodeBatch(Batch{Seq: 1, Ops: []Op{{Key: []byte("k"), Val: []byte("v")}}})
	cases := map[string][]byte{
		"short header": good[:4],
		"truncated op": good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0x01),
	}
	for name, data := range cases {
		if _, err := DecodeBatch(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	bad := append([]byte(nil), good...)
	bad[8+1] = 99 // valid count, bogus op byte... offset: 8 seq + 1 varint count
	if _, err := DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad op byte: err = %v, want ErrCorrupt", err)
	}
}

func TestWalReplaySkipsStaleSeq(t *testing.T) {
	// Simulates a crash between snapshot install and WAL truncation:
	// batches already covered by the snapshot must not be re-applied.
	dir := t.TempDir()
	w, err := openWalWriter(filepath.Join(dir, "WAL"), false)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b := Batch{Seq: seq, Ops: []Op{{Key: []byte{byte(seq)}, Val: []byte("v")}}}
		if _, err := w.appendGroup([]Batch{b}); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	var snap tree
	snap = snap.Put([]byte{1}, []byte("v"))
	snap = snap.Put([]byte{2}, []byte("v"))
	if err := writeSnapshot(dir, snap, 2, 0); err != nil {
		t.Fatal(err)
	}

	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (snapshot 2 keys + 1 replayed batch)", db.Len())
	}
	if got := db.Seq(); got != 3 {
		t.Fatalf("seq = %d, want 3", got)
	}
}

func TestSnapshotHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	// Bad magic.
	path := filepath.Join(dir, "SNAPSHOT")
	if err := os.WriteFile(path, []byte("NOTMAGIC plus enough bytes here"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic err = %v", err)
	}
	// Bad version (fix the CRC so only the version check fires).
	body := make([]byte, 0, 64)
	var hdr [20]byte
	binary.BigEndian.PutUint32(hdr[0:4], 999)
	body = append(body, hdr[:]...)
	file := append(append([]byte(nil), snapshotMagic[:]...), body...)
	var crcBuf [4]byte
	binary.BigEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(body))
	file = append(file, crcBuf[:]...)
	if err := os.WriteFile(path, file, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version err = %v", err)
	}
}

// TestWriteRefusalPrecedence walks the write-refusal ladder: each
// state alone refuses writes with its own error, and when two hold the
// higher rung answers — closed, then replica, fenced, corrupt, failed.
// Disk stores take the grouped path and in-memory stores the serialized
// one; both consult the same ladder.
func TestWriteRefusalPrecedence(t *testing.T) {
	ladder := []struct {
		name string
		set  func(db *DB)
		want error
	}{
		{"closed", func(db *DB) { db.Close() }, ErrClosed},
		{"replica", func(db *DB) { db.SetReplicaMode(true) }, ErrReplica},
		{"fenced", func(db *DB) { db.Fence() }, ErrFenced},
		{"corrupt", func(db *DB) { db.markCorrupt(UnitWALFrame, errors.New("bit rot")) }, ErrStorageCorrupt},
		{"failed", func(db *DB) { db.fail(errors.New("disk gone")) }, ErrStorageFailed},
	}
	for _, store := range []string{"disk", "memory"} {
		for hi, upper := range ladder {
			for _, lower := range ladder[hi:] {
				t.Run(store+"/"+upper.name+"+"+lower.name, func(t *testing.T) {
					opts := Options{}
					if store == "disk" {
						opts.Dir = t.TempDir()
					}
					db, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					if err := putKey(db, "before"); err != nil {
						t.Fatalf("healthy store refused a write: %v", err)
					}
					lower.set(db) // lower rung first: precedence is not arrival order
					upper.set(db)
					err = putKey(db, "refused")
					if !errors.Is(err, upper.want) {
						t.Fatalf("err = %v, want %v", err, upper.want)
					}
					if lower.want != upper.want && errors.Is(err, lower.want) {
						t.Fatalf("err = %v also matches lower rung %v", err, lower.want)
					}
				})
			}
		}
	}
}

func BenchmarkDBUpdateSingle(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := make([]byte, 16)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(i))
		err := db.Update(func(tx *Tx) error {
			return tx.MustBucket("bench").Put(key, val)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBViewGet(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := make([]byte, 16)
	db.Update(func(tx *Tx) error {
		bk := tx.MustBucket("bench")
		for i := 0; i < 10000; i++ {
			binary.BigEndian.PutUint64(key, uint64(i))
			if err := bk.Put(key, []byte("value")); err != nil {
				return err
			}
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(i%10000))
		db.View(func(tx *Tx) error {
			tx.MustBucket("bench").Get(key)
			return nil
		})
	}
}

func BenchmarkDBUpdateSyncWrites(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir(), SyncWrites: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	key := make([]byte, 16)
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key, uint64(i))
		err := db.Update(func(tx *Tx) error {
			return tx.MustBucket("bench").Put(key, val)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
