package storedb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func eput(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if err := db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte(key), []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBumpEpochDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir}) // SyncWrites off: bump must fsync anyway
	if err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", db.Epoch())
	}
	eput(t, db, "k", "v")
	syncs := 0
	installFS(&fsHooks{sync: func(f *os.File, label string) error {
		syncs++
		return f.Sync()
	}})
	e, err := db.BumpEpoch()
	installFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	if e != 1 || db.Epoch() != 1 {
		t.Fatalf("epoch after bump = %d (returned %d), want 1", db.Epoch(), e)
	}
	if syncs == 0 {
		t.Fatal("epoch bump did not fsync on a SyncWrites=false store")
	}
	seq := db.Seq()
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Epoch() != 1 {
		t.Fatalf("recovered epoch = %d, want 1", db2.Epoch())
	}
	if db2.Seq() != seq {
		t.Fatalf("recovered seq = %d, want %d", db2.Seq(), seq)
	}
}

func TestBumpEpochWorksInReplicaModeAndUnfences(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetReplicaMode(true)
	db.Fence()
	if err := db.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrReplica) {
		t.Fatalf("update in replica mode err = %v", err)
	}
	if _, err := db.BumpEpoch(); err != nil {
		t.Fatalf("bump in replica mode: %v", err)
	}
	if db.Fenced() {
		t.Fatal("bump did not clear the fence")
	}
	db.SetReplicaMode(false)
	eput(t, db, "k", "v")
}

func TestFenceBlocksWrites(t *testing.T) {
	for _, opts := range []Options{{}, {Dir: t.TempDir()}} {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		eput(t, db, "k", "v")
		db.Fence()
		err = db.Update(func(tx *Tx) error {
			return tx.MustBucket("b").Put([]byte("k2"), []byte("v"))
		})
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("fenced update err = %v, want ErrFenced", err)
		}
		// Reads still serve, and ApplyBatch still works (rejoin path).
		db.View(func(tx *Tx) error {
			if _, ok := tx.MustBucket("b").Get([]byte("k")); !ok {
				t.Fatal("read lost under fence")
			}
			return nil
		})
		if err := db.ApplyBatch(Batch{Seq: db.Seq() + 1, Ops: []Op{{Key: []byte("b\x00k3"), Val: []byte("v")}}}); err != nil {
			t.Fatalf("fenced ApplyBatch: %v", err)
		}
		db.Unfence()
		eput(t, db, "k4", "v")
		db.Close()
	}
}

func TestEpochReplicatesViaApplyBatchAndSnapshot(t *testing.T) {
	primary, _ := Open(Options{})
	defer primary.Close()
	eput(t, primary, "k", "v")
	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}

	// Batch shipping carries the epoch.
	replica, _ := Open(Options{})
	defer replica.Close()
	replica.SetReplicaMode(true)
	if err := primary.Since(0, 0, func(b Batch) error { return replica.ApplyBatch(b) }); err != nil {
		t.Fatal(err)
	}
	if replica.Epoch() != 2 {
		t.Fatalf("replica epoch via batches = %d, want 2", replica.Epoch())
	}
	if replica.ChainDigest() != primary.ChainDigest() {
		t.Fatal("digest chains diverged on identical history")
	}

	// Snapshot bootstrap carries it too.
	boot, _ := Open(Options{})
	defer boot.Close()
	var buf bytes.Buffer
	if _, err := primary.WriteSnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.RestoreSnapshotFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if boot.Epoch() != 2 {
		t.Fatalf("epoch via snapshot = %d, want 2", boot.Epoch())
	}
	if boot.ChainDigest() != primary.ChainDigest() {
		t.Fatal("snapshot restore did not adopt the digest anchor")
	}
}

func TestDigestAtAndSinceWithDigest(t *testing.T) {
	for _, opts := range []Options{{}, {Dir: t.TempDir()}} {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			eput(t, db, fmt.Sprintf("k%d", i), "v")
		}
		// The chain served by SinceWithDigest must reproduce DigestAt.
		prevWant, _ := db.DigestAt(0)
		err = db.SinceWithDigest(0, 0, func(b Batch, prev uint64) error {
			if prev != prevWant {
				t.Fatalf("batch %d prev digest = %x, want %x", b.Seq, prev, prevWant)
			}
			prevWant = chainStep(prev, EncodeBatch(b))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if prevWant != db.ChainDigest() {
			t.Fatal("chained digest does not land on ChainDigest")
		}
		if d, ok := db.DigestAt(db.Seq()); !ok || d != db.ChainDigest() {
			t.Fatalf("DigestAt(seq) = %x,%v, want %x", d, ok, db.ChainDigest())
		}
		db.Close()
	}
}

func TestDigestAtFromWALAfterRingRollover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, ReplLogBuffer: 2, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	digests := map[uint64]uint64{}
	for i := 0; i < 10; i++ {
		eput(t, db, fmt.Sprintf("k%d", i), "v")
		digests[db.Seq()] = db.ChainDigest()
	}
	// Ring holds only the last 2; the rest must come from the WAL scan.
	for seq, want := range digests {
		got, ok := db.DigestAt(seq)
		if !ok || got != want {
			t.Fatalf("DigestAt(%d) = %x,%v, want %x", seq, got, ok, want)
		}
	}
}

func TestDigestSurvivesCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eput(t, db, fmt.Sprintf("k%d", i), "v")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 9; i++ {
		eput(t, db, fmt.Sprintf("k%d", i), "v")
	}
	want := db.ChainDigest()
	wantSeq := db.Seq()
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Seq() != wantSeq || db2.ChainDigest() != want {
		t.Fatalf("reopened (seq,digest) = (%d,%x), want (%d,%x)",
			db2.Seq(), db2.ChainDigest(), wantSeq, want)
	}
	if d, ok := db2.DigestAt(db2.SnapSeq()); !ok || d != db2.snapDigest.Load() {
		t.Fatalf("DigestAt(snapSeq) = %x,%v", d, ok)
	}
}

func TestTruncateTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		eput(t, db, fmt.Sprintf("k%d", i), "v")
	}
	cut := uint64(3)
	wantDigest, ok := db.DigestAt(cut)
	if !ok {
		t.Fatal("digest at cut unknown")
	}
	removed, err := db.TruncateTail(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("removed %d batches, want 3", len(removed))
	}
	if removed[0].Seq != 4 || removed[2].Seq != 6 {
		t.Fatalf("removed seqs [%d..%d], want [4..6]", removed[0].Seq, removed[2].Seq)
	}
	if db.Seq() != cut || db.ChainDigest() != wantDigest {
		t.Fatalf("post-truncate (seq,digest) = (%d,%x), want (%d,%x)",
			db.Seq(), db.ChainDigest(), cut, wantDigest)
	}
	db.View(func(tx *Tx) error {
		b := tx.MustBucket("b")
		if _, ok := b.Get([]byte("k2")); !ok {
			t.Fatal("kept key lost")
		}
		if _, ok := b.Get([]byte("k4")); ok {
			t.Fatal("truncated key survived")
		}
		return nil
	})
	// The store keeps working: new history can replace the cut tail.
	if err := db.ApplyBatch(removed[0]); err != nil {
		t.Fatalf("apply after truncate: %v", err)
	}
	db.Close()

	// And the cut is durable.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Seq() != cut+1 {
		t.Fatalf("recovered seq = %d, want %d", db2.Seq(), cut+1)
	}
}

func TestTruncateTailRefusals(t *testing.T) {
	mem, _ := Open(Options{})
	defer mem.Close()
	eput(t, mem, "k", "v")
	if _, err := mem.TruncateTail(0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("in-memory truncate err = %v, want ErrCompacted", err)
	}

	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir, CompactEvery: -1})
	defer db.Close()
	for i := 0; i < 4; i++ {
		eput(t, db, fmt.Sprintf("k%d", i), "v")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	eput(t, db, "k9", "v")
	if _, err := db.TruncateTail(2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("below-floor truncate err = %v, want ErrCompacted", err)
	}
	if _, err := db.TruncateTail(99); err == nil {
		t.Fatal("beyond-seq truncate accepted")
	}
	if removed, err := db.TruncateTail(db.Seq()); err != nil || removed != nil {
		t.Fatalf("no-op truncate = %v,%v", removed, err)
	}
}

// TestPromotionCrashAtEverySyncPoint drives BumpEpoch through a power
// loss at every fsync point. The invariant: recovery lands on exactly
// (old epoch, old seq) or (new epoch, old seq+1) — a half-promoted
// zombie that remembers the bump without its history, or vice versa,
// must be impossible. Either way the node must be able to continue as
// a replica (apply the next batch) or as a primary (bump again).
func TestPromotionCrashAtEverySyncPoint(t *testing.T) {
	const seedCommits = 3
	for killAt := 1; ; killAt++ {
		dir := t.TempDir()

		// Seed a few committed batches without the simulator.
		db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < seedCommits; i++ {
			eput(t, db, fmt.Sprintf("seed%d", i), "v")
		}
		baseSeq, baseEpoch := db.Seq(), db.Epoch()
		db.Close()

		sim := newCrashSim(t, dir, killAt)
		// The seed writes are durable; record their synced sizes.
		for _, name := range []string{"WAL", "SNAPSHOT"} {
			p := filepath.Join(dir, name)
			if info, err := os.Stat(p); err == nil {
				sim.durable[p] = info.Size()
			}
		}
		sim.install()

		acked := false
		db, err = Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
		if err == nil {
			db.SetReplicaMode(true) // promotion starts from replica role
			if _, err := db.BumpEpoch(); err == nil {
				acked = true
			}
			db.Close()
		} else if !sim.killed {
			sim.uninstall()
			t.Fatalf("killAt=%d: open: %v", killAt, err)
		}

		survived := !sim.killed
		sim.powerLoss()
		sim.uninstall()

		db2, err := Open(Options{Dir: dir, SyncWrites: true})
		if err != nil {
			t.Fatalf("killAt=%d: recovery failed: %v", killAt, err)
		}
		epoch, seq := db2.Epoch(), db2.Seq()
		okOld := epoch == baseEpoch && seq == baseSeq
		okNew := epoch == baseEpoch+1 && seq == baseSeq+1
		if !okOld && !okNew {
			t.Fatalf("killAt=%d: recovered (epoch,seq) = (%d,%d); want (%d,%d) or (%d,%d)",
				killAt, epoch, seq, baseEpoch, baseSeq, baseEpoch+1, baseSeq+1)
		}
		if acked && !okNew {
			t.Fatalf("killAt=%d: acked promotion lost: (epoch,seq) = (%d,%d)", killAt, epoch, seq)
		}
		// Not a zombie: both roles still work from the recovered state.
		if err := db2.ApplyBatch(Batch{Seq: seq + 1, Ops: []Op{{Key: []byte("b\x00next"), Val: []byte("v")}}}); err != nil {
			t.Fatalf("killAt=%d: recovered node cannot continue as replica: %v", killAt, err)
		}
		if _, err := db2.BumpEpoch(); err != nil {
			t.Fatalf("killAt=%d: recovered node cannot promote: %v", killAt, err)
		}
		db2.Close()

		if survived {
			if killAt < 2 {
				t.Fatalf("promotion hit only %d sync points; test is vacuous", killAt-1)
			}
			return
		}
	}
}
