package storedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"softreputation/internal/frame"
)

// State coherence. Every entry point that moves the store from one
// committed state to another must leave the same relations between the
// published root, the staging root, the sequence, the digest chain, the
// tail ring, the epoch and the bytes on disk. checkCoherent is that
// predicate; TestStateCoherentAfterEveryTransition runs it after each
// entry point.

// walFramesOnDisk reads the log the way a stranger to the package would:
// length, CRC, payload, until the bytes stop verifying. It is the
// reference the store's own scanner and digest chain are compared to.
func walFramesOnDisk(t *testing.T, dir string) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "WAL"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for len(data) >= frame.HeaderSize {
		n := int(binary.BigEndian.Uint32(data))
		if n < 8 || n > len(data)-frame.HeaderSize {
			break
		}
		payload := data[frame.HeaderSize : frame.HeaderSize+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:]) {
			break
		}
		seqs = append(seqs, binary.BigEndian.Uint64(payload))
		payloads = append(payloads, payload)
		data = data[frame.HeaderSize+n:]
	}
	return seqs, payloads
}

type tailEntry struct {
	b    Batch
	prev uint64
}

// bothTails reads the tail after from with Since and with
// SinceWithDigest.
func bothTails(t *testing.T, db *DB, from uint64) (plain []Batch, withDigest []tailEntry) {
	t.Helper()
	plain = collectSince(t, db, from, 0)
	if err := db.SinceWithDigest(from, 0, func(b Batch, prev uint64) error {
		withDigest = append(withDigest, tailEntry{b, prev})
		return nil
	}); err != nil {
		t.Fatalf("SinceWithDigest(%d): %v", from, err)
	}
	return plain, withDigest
}

// sameBatch compares what a batch says, not how it is held: a nil and an
// empty value are the same value.
func sameBatch(a, b Batch) bool {
	if a.Seq != b.Seq || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Delete != y.Delete || !bytes.Equal(x.Key, y.Key) || !bytes.Equal(x.Val, y.Val) {
			return false
		}
	}
	return true
}

// checkCoherent asserts the relations that hold in every settled state
// of a healthy durable store. The caller has quiesced it.
func checkCoherent(t *testing.T, db *DB, dir string) {
	t.Helper()
	seq := db.Seq()

	// One position: the chain stands where the sequence does.
	chainSeq, chainDigest := db.ChainPosition()
	if chainSeq != seq {
		t.Errorf("chain at seq %d, store at %d", chainSeq, seq)
	}
	if d, ok := db.DigestAt(seq); !ok || d != chainDigest || d != db.ChainDigest() {
		t.Errorf("DigestAt(%d) = %x,%v; chain says %x", seq, d, ok, chainDigest)
	}

	// The disk says the same: snapshot anchor plus verified WAL payloads
	// re-derive the sequence and the digest.
	_, snapSeq, snapDigest, err := loadSnapshot(dir)
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if snapSeq != db.SnapSeq() {
		t.Errorf("snapshot on disk covers %d, SnapSeq() = %d", snapSeq, db.SnapSeq())
	}
	diskSeq, diskDigest := snapSeq, snapDigest
	seqs, payloads := walFramesOnDisk(t, dir)
	for i, s := range seqs {
		if s <= snapSeq {
			continue
		}
		if s != diskSeq+1 {
			t.Fatalf("wal frame %d follows %d", s, diskSeq)
		}
		diskSeq, diskDigest = s, chainStep(diskDigest, payloads[i])
	}
	if diskSeq != seq || diskDigest != chainDigest {
		t.Errorf("disk re-derives (seq %d, digest %x), store says (%d, %x)", diskSeq, diskDigest, seq, chainDigest)
	}

	// Staging rests on the published root.
	db.writeMu.Lock()
	cur := db.current.Load()
	if db.stageSeq != seq || db.staged.root != cur.root || db.staged.size != cur.size {
		t.Errorf("staging at seq %d (%d keys) is not the published root at %d (%d keys)",
			db.stageSeq, db.staged.size, seq, cur.size)
	}
	db.writeMu.Unlock()

	if want := epochFromTree(*cur); db.Epoch() != want {
		t.Errorf("Epoch() = %d, the tree holds %d", db.Epoch(), want)
	}

	// The ring holds a contiguous run ending at the sequence, or nothing.
	// (Its floor may lie below the snapshot: the ring outlives compaction.)
	db.replMu.Lock()
	ring := db.recent
	if ring != nil && ring.n > 0 {
		floor := ring.buf[ring.start].b.Seq
		ceil := ring.buf[(ring.start+ring.n-1)%len(ring.buf)].b.Seq
		if ceil != seq || floor+uint64(ring.n)-1 != ceil {
			t.Errorf("ring holds %d batches %d..%d, store at %d", ring.n, floor, ceil, seq)
		}
	}
	db.replMu.Unlock()

	// One tail, whoever serves it: ring or log, with or without digests.
	for from := snapSeq; from < seq; from++ {
		plain, withDigest := bothTails(t, db, from)
		db.replMu.Lock()
		db.recent = nil
		db.replMu.Unlock()
		logPlain, logWithDigest := bothTails(t, db, from)
		db.replMu.Lock()
		db.recent = ring
		db.replMu.Unlock()

		if len(plain) != int(seq-from) {
			t.Fatalf("Since(%d) yields %d batches, want %d", from, len(plain), seq-from)
		}
		for i := range plain {
			for _, other := range []Batch{withDigest[i].b, logPlain[i], logWithDigest[i].b} {
				if !sameBatch(plain[i], other) {
					t.Fatalf("batch %d after %d differs between readers:\n%+v\n%+v", i, from, plain[i], other)
				}
			}
			if withDigest[i].prev != logWithDigest[i].prev {
				t.Fatalf("batch %d: ring says predecessor digest %x, log says %x",
					plain[i].Seq, withDigest[i].prev, logWithDigest[i].prev)
			}
			if want, ok := db.DigestAt(plain[i].Seq - 1); !ok || want != withDigest[i].prev {
				t.Fatalf("batch %d: predecessor digest %x, DigestAt says %x,%v",
					plain[i].Seq, withDigest[i].prev, want, ok)
			}
		}
	}

	// A cold open of the same bytes is the same store.
	var live bytes.Buffer
	if _, err := db.WriteSnapshotTo(&live); err != nil {
		t.Fatal(err)
	}
	cold := t.TempDir()
	for _, name := range []string{"SNAPSHOT", "WAL"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cold, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(Options{Dir: cold, CompactEvery: -1})
	if err != nil {
		t.Fatalf("cold open of a copy: %v", err)
	}
	defer db2.Close()
	var reopened bytes.Buffer
	if _, err := db2.WriteSnapshotTo(&reopened); err != nil {
		t.Fatal(err)
	}
	if db2.Seq() != seq || db2.ChainDigest() != chainDigest || !bytes.Equal(live.Bytes(), reopened.Bytes()) {
		t.Errorf("cold open gives (seq %d, digest %x, %d snapshot bytes), live store (%d, %x, %d)",
			db2.Seq(), db2.ChainDigest(), reopened.Len(), seq, chainDigest, live.Len())
	}
}

// coherenceFixture opens a durable store holding a snapshot (eight
// commits, with an overwrite and a delete), a six-frame WAL tail past
// it, and a four-slot ring that has rolled.
func coherenceFixture(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1, ReplLogBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := putKey(db, fmt.Sprintf("pre-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Update(func(tx *Tx) error { return tx.MustBucket("b").Put([]byte("pre-00"), []byte("again")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.MustBucket("b").Delete([]byte("pre-01")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := putKey(db, fmt.Sprintf("post-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// corruptFixtureWAL flips a bit in the first WAL frame and lets scrub
// find it.
func corruptFixtureWAL(t *testing.T, db *DB, dir string) {
	t.Helper()
	if err := FlipFileBit(filepath.Join(dir, "WAL"), (frame.HeaderSize+1)*8); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(context.Background()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub after flip: %v, want ErrCorrupt", err)
	}
}

// restoreFromHealthySource restores the quarantined store from another
// store's snapshot stream.
func restoreFromHealthySource(t *testing.T, db *DB) {
	t.Helper()
	src, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 5; i++ {
		if err := putKey(src, fmt.Sprintf("src-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	want, err := src.WriteSnapshotTo(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.RestoreSnapshotFrom(&stream); err != nil || got != want {
		t.Fatalf("restore = %d, %v; want %d", got, err, want)
	}
}

func quarantine(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.QuarantineCorrupt(); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
}

// mustRefusePromotion asserts BumpEpoch refuses a corrupt store and
// leaves its position alone.
func mustRefusePromotion(t *testing.T, db *DB, when string) {
	t.Helper()
	seq, epoch := db.Seq(), db.Epoch()
	if _, err := db.BumpEpoch(); !errors.Is(err, ErrStorageCorrupt) {
		t.Errorf("BumpEpoch %s: err = %v, want ErrStorageCorrupt", when, err)
	}
	if db.Seq() != seq || db.Epoch() != epoch {
		t.Errorf("BumpEpoch %s moved (seq, epoch) from (%d, %d) to (%d, %d)", when, seq, epoch, db.Seq(), db.Epoch())
	}
}

func TestStateCoherentAfterEveryTransition(t *testing.T) {
	rows := []struct {
		name string
		// run drives one entry point and returns the store to check,
		// which is db unless the transition replaced it.
		run func(t *testing.T, db *DB, dir string) *DB
	}{
		{"fixture", func(t *testing.T, db *DB, dir string) *DB { return db }},
		{"concurrent updates", func(t *testing.T, db *DB, dir string) *DB {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						if err := putKey(db, fmt.Sprintf("g%d-%d", g, i)); err != nil {
							t.Error(err)
						}
					}
				}(g)
			}
			wg.Wait()
			return db
		}},
		{"ApplyBatch", func(t *testing.T, db *DB, dir string) *DB {
			b := Batch{Seq: db.Seq() + 1, Ops: []Op{
				{Key: []byte("b\x00shipped"), Val: []byte("v")},
				{Delete: true, Key: []byte("b\x00post-00")},
			}}
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			mustHave(t, db, "shipped", true)
			mustHave(t, db, "post-00", false)
			return db
		}},
		{"BumpEpoch", func(t *testing.T, db *DB, dir string) *DB {
			if e, err := db.BumpEpoch(); err != nil || e != 1 {
				t.Fatalf("BumpEpoch = %d, %v", e, err)
			}
			return db
		}},
		{"replicated epoch bump", func(t *testing.T, db *DB, dir string) *DB {
			var val [8]byte
			binary.BigEndian.PutUint64(val[:], 7)
			if err := db.ApplyBatch(Batch{Seq: db.Seq() + 1, Ops: []Op{{Key: epochKey(), Val: val[:]}}}); err != nil {
				t.Fatal(err)
			}
			if db.Epoch() != 7 {
				t.Errorf("Epoch() = %d after a replicated bump to 7", db.Epoch())
			}
			return db
		}},
		{"failure then Reopen", func(t *testing.T, db *DB, dir string) *DB {
			plan := NewFaultPlan(&FaultRule{Op: FaultSync, Label: "wal", Count: 1, Err: ErrInjectedIO})
			plan.Install()
			err := putKey(db, "lost")
			UninstallFaults()
			if !errors.Is(err, ErrStorageFailed) {
				t.Fatalf("faulted write: %v, want ErrStorageFailed", err)
			}
			if err := db.Reopen(); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			mustHave(t, db, "lost", false)
			return db
		}},
		{"TruncateTail", func(t *testing.T, db *DB, dir string) *DB {
			to := db.SnapSeq() + 2
			removed, err := db.TruncateTail(to)
			if err != nil {
				t.Fatal(err)
			}
			if len(removed) != 4 || removed[0].Seq != to+1 {
				t.Fatalf("TruncateTail(%d) returned %d batches starting at %d", to, len(removed), removed[0].Seq)
			}
			mustHave(t, db, "post-01", true)
			mustHave(t, db, "post-02", false)
			return db
		}},
		{"quarantine then restore", func(t *testing.T, db *DB, dir string) *DB {
			corruptFixtureWAL(t, db, dir)
			quarantine(t, db)
			restoreFromHealthySource(t, db)
			mustHave(t, db, "src-04", true)
			mustHave(t, db, "post-00", false)
			return db
		}},
		// A corrupt store cannot be promoted: before quarantine the bump
		// would be appended to a log that failed verification, after it
		// the log is gone and the bump would be "committed" with no write
		// and no fsync.
		{"promotion refused while corrupt, then restore", func(t *testing.T, db *DB, dir string) *DB {
			corruptFixtureWAL(t, db, dir)
			mustRefusePromotion(t, db, "before quarantine")
			quarantine(t, db)
			mustRefusePromotion(t, db, "after quarantine")
			restoreFromHealthySource(t, db)
			return db
		}},
		{"cold Open", func(t *testing.T, db *DB, dir string) *DB {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1, ReplLogBuffer: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db2.Close() })
			return db2
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			db := coherenceFixture(t, dir)
			defer db.Close()
			db = row.run(t, db, dir)
			checkCoherent(t, db, dir)
			// And the store goes on from there as from any other state.
			if err := putKey(db, "next"); err != nil {
				t.Fatalf("write after the transition: %v", err)
			}
			checkCoherent(t, db, dir)
		})
	}
}

// TestPromotionKicksCompactor: a promotion is a commit like any other,
// so one that lands on the CompactEvery-th batch signals the compactor.
func TestPromotionKicksCompactor(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// No compactor goroutine runs, so the signal stays in the channel to
	// be observed.
	db.opts.CompactEvery = 3
	db.compactKick = make(chan struct{}, 1)
	for i := 0; i < 2; i++ {
		if err := putKey(db, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-db.compactKick:
		t.Fatal("compactor signalled before the CompactEvery-th batch")
	default:
	}
	if _, err := db.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-db.compactKick:
	default:
		t.Fatal("a promotion on the CompactEvery-th batch did not signal the compactor")
	}
}

// goldenHistory commits the fixed three-batch history the byte-identity
// goldens are taken over: a put, an overwrite of it, and its delete.
func goldenHistory(t *testing.T, db *DB) {
	t.Helper()
	steps := []func(tx *Tx) error{
		func(tx *Tx) error { return tx.MustBucket("s").Put([]byte("program"), []byte("score=7")) },
		func(tx *Tx) error { return tx.MustBucket("s").Put([]byte("program"), []byte("score=9")) },
		func(tx *Tx) error { return tx.MustBucket("s").Delete([]byte("program")) },
	}
	for _, step := range steps {
		if err := db.Update(step); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALBytesGolden pins the log's bytes for a fixed history, as hex
// taken at the commit before the WAL began encoding Batch directly: an
// old data directory keeps opening and a mixed-version pair keeps
// replicating only while these do not move.
func TestWALBytesGolden(t *testing.T) {
	const want = "0000001c3069d5fe0000000000000001010109730070726f6772616d0773636f72653d37" +
		"0000001caccf7a1a0000000000000002010109730070726f6772616d0773636f72653d39" +
		"000000144b6c7ecd0000000000000003010209730070726f6772616d"
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	goldenHistory(t, db)
	data, err := os.ReadFile(filepath.Join(dir, "WAL"))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("WAL bytes moved:\n got %s\nwant %s", got, want)
	}
	// The exported codec is the same bytes, and reads them back.
	var shipped []Batch
	if err := db.Since(0, 0, func(b Batch) error { shipped = append(shipped, b); return nil }); err != nil {
		t.Fatal(err)
	}
	_, payloads := walFramesOnDisk(t, dir)
	if len(shipped) != 3 || len(payloads) != 3 {
		t.Fatalf("%d batches shipped, %d frames on disk, want 3 and 3", len(shipped), len(payloads))
	}
	for i, b := range shipped {
		if enc := EncodeBatch(b); !bytes.Equal(enc, payloads[i]) {
			t.Errorf("EncodeBatch(batch %d) = %x, the log holds %x", b.Seq, enc, payloads[i])
		}
		dec, err := DecodeBatch(payloads[i])
		if err != nil || !sameBatch(dec, b) {
			t.Errorf("DecodeBatch(frame %d) = %+v, %v; committed %+v", i, dec, err, b)
		}
	}
}
