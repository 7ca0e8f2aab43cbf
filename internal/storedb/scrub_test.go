package storedb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"softreputation/internal/frame"
)

// Byte offsets into a v3 snapshot file. Layout: 8 bytes magic, 4 bytes
// version, then the header block (4 length + 4 CRC + 24 payload), then
// bucket blocks.
const (
	snapHeaderPayloadOff = 12 + 8
	snapFirstBlockOff    = snapHeaderPayloadOff + snapshotHeaderLen + 8
)

// scrubTestDB opens a durable store, commits keys on both sides of a
// compaction, and returns it: the snapshot holds pre-* keys, the WAL
// holds three post-* frames past the anchor.
func scrubTestDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1, ReplLogBuffer: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := putKey(db, fmt.Sprintf("pre-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := putKey(db, fmt.Sprintf("post-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestScrubCleanPass checks that a scrub over an intact store verifies
// every unit and reports clean.
func TestScrubCleanPass(t *testing.T) {
	dir := t.TempDir()
	db := scrubTestDB(t, dir)
	defer db.Close()

	rep, err := db.Scrub(context.Background())
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.Clean || rep.Unit != "" {
		t.Fatalf("scrub report = %+v, want clean", rep)
	}
	if rep.SnapshotBlocks < 2 {
		t.Errorf("SnapshotBlocks = %d, want header + at least one bucket block", rep.SnapshotBlocks)
	}
	if rep.WALFrames != 3 {
		t.Errorf("WALFrames = %d, want 3", rep.WALFrames)
	}
	h := db.Health()
	if h.Corrupt || h.ScrubRuns == 0 || h.ScrubBlocks == 0 || h.LastScrubUnix == 0 {
		t.Errorf("health after clean scrub = %+v", h)
	}
}

// TestScrubDetectsBitFlip is the detection matrix of satellite (d): one
// silent bit flip in each checksummed unit class — snapshot header,
// snapshot bucket block, WAL frame body — must be named by the next
// scrub, move the store to the sticky corrupt state, and leave reads
// serving while writes and Reopen are refused.
func TestScrubDetectsBitFlip(t *testing.T) {
	cases := []struct {
		name string
		unit string
		flip func(t *testing.T, dir string)
	}{
		{"snapshot-header", UnitSnapshotHeader, func(t *testing.T, dir string) {
			t.Helper()
			if err := FlipFileBit(filepath.Join(dir, "SNAPSHOT"), (snapHeaderPayloadOff+1)*8); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot-block", UnitSnapshotBlock, func(t *testing.T, dir string) {
			t.Helper()
			if err := FlipFileBit(filepath.Join(dir, "SNAPSHOT"), (snapFirstBlockOff+1)*8); err != nil {
				t.Fatal(err)
			}
		}},
		{"wal-frame", UnitWALFrame, func(t *testing.T, dir string) {
			t.Helper()
			// First frame past the anchor, one byte into its payload.
			if err := FlipFileBit(filepath.Join(dir, "WAL"), (frame.HeaderSize+1)*8); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := scrubTestDB(t, dir)
			defer db.Close()

			if rep, err := db.Scrub(context.Background()); err != nil || !rep.Clean {
				t.Fatalf("baseline scrub: %+v, %v", rep, err)
			}

			tc.flip(t, dir)

			rep, err := db.Scrub(context.Background())
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scrub after flip: err = %v, want ErrCorrupt", err)
			}
			if rep.Clean || rep.Unit != tc.unit {
				t.Fatalf("scrub report = %+v, want unit %q", rep, tc.unit)
			}

			h := db.Health()
			if !h.Corrupt || h.CorruptUnit != tc.unit || h.Corruptions == 0 {
				t.Fatalf("health = Corrupt=%v Unit=%q Corruptions=%d, want corrupt unit %q",
					h.Corrupt, h.CorruptUnit, h.Corruptions, tc.unit)
			}
			if h.CorruptCause == "" {
				t.Error("CorruptCause empty")
			}

			// Reads keep serving the in-memory tree.
			mustHave(t, db, "pre-00", true)
			mustHave(t, db, "post-02", true)

			// Writes are refused with the distinct sticky error, not the
			// generic failed one.
			if err := putKey(db, "rejected"); !errors.Is(err, ErrStorageCorrupt) {
				t.Fatalf("write on corrupt store: %v, want ErrStorageCorrupt", err)
			}

			// Reopen cannot clear corrupt: damaged bytes stay damaged.
			if err := db.Reopen(); !errors.Is(err, ErrStorageCorrupt) {
				t.Fatalf("reopen on corrupt store: %v, want ErrStorageCorrupt", err)
			}

			// Restore without quarantine would overwrite the evidence.
			if _, err := db.RestoreSnapshotFrom(bytes.NewReader(nil)); !errors.Is(err, ErrQuarantineRequired) {
				t.Fatalf("restore before quarantine: %v, want ErrQuarantineRequired", err)
			}
		})
	}
}

// TestQuarantineThenRestoreRecovers walks the full repair path a
// replication.Repairer drives: scrub finds the flip, quarantine moves
// the damaged files aside (never deletes them), restore installs a
// verified snapshot stream, and the store is writable again — cold
// restart included.
func TestQuarantineThenRestoreRecovers(t *testing.T) {
	dir := t.TempDir()
	db := scrubTestDB(t, dir)
	defer db.Close()

	if err := FlipFileBit(filepath.Join(dir, "SNAPSHOT"), (snapFirstBlockOff+1)*8); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(context.Background()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub: %v", err)
	}

	// A healthy source with the full history the corrupt store acked —
	// in production this is a replica that replayed every batch.
	src, err := Open(Options{Dir: t.TempDir(), SyncWrites: true, CompactEvery: -1, ReplLogBuffer: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 8; i++ {
		if err := putKey(src, fmt.Sprintf("pre-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := putKey(src, fmt.Sprintf("post-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var stream bytes.Buffer
	wantSeq, err := src.WriteSnapshotTo(&stream)
	if err != nil {
		t.Fatal(err)
	}

	qdir, err := db.QuarantineCorrupt()
	if err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	// The evidence moved, it did not vanish.
	for _, name := range []string{"SNAPSHOT", "WAL"} {
		if _, err := os.Stat(filepath.Join(qdir, name)); err != nil {
			t.Errorf("quarantined %s: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still in data dir after quarantine (err=%v)", name, err)
		}
	}

	gotSeq, err := db.RestoreSnapshotFrom(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if gotSeq != wantSeq {
		t.Fatalf("restored seq = %d, want %d", gotSeq, wantSeq)
	}
	if h := db.Health(); h.Corrupt || h.Failed {
		t.Fatalf("health after restore = %+v, want healthy", h)
	}
	mustHave(t, db, "pre-00", true)
	mustHave(t, db, "post-02", true)
	if err := putKey(db, "after-repair"); err != nil {
		t.Fatalf("write after repair: %v", err)
	}

	// The repaired state survives a cold restart.
	db.Close()
	db2, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("cold reopen: %v", err)
	}
	defer db2.Close()
	mustHave(t, db2, "pre-00", true)
	mustHave(t, db2, "post-02", true)
	mustHave(t, db2, "after-repair", true)
	if db2.Seq() != wantSeq+1 {
		t.Fatalf("seq after restart = %d, want %d", db2.Seq(), wantSeq+1)
	}
}

// TestQuarantineRefusesHealthyStore guards the evidence path: only a
// provably corrupt store may be quarantined.
func TestQuarantineRefusesHealthyStore(t *testing.T) {
	db, err := Open(Options{Dir: t.TempDir(), SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.QuarantineCorrupt(); err == nil {
		t.Fatal("quarantine of a healthy store succeeded")
	}
}

// TestOpenRemovesOrphanTemps checks satellite (b): a crash between
// snapshot write and rename leaves SNAPSHOT.tmp (and possibly WAL.swap)
// behind; the next Open must clean them up so they are never confused
// with live state.
func TestOpenRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := putKey(db, "live"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	for _, name := range []string{"SNAPSHOT.tmp", "WAL.swap"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	db2, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("open with orphans: %v", err)
	}
	defer db2.Close()
	for _, name := range []string{"SNAPSHOT.tmp", "WAL.swap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived Open (err=%v)", name, err)
		}
	}
	mustHave(t, db2, "live", true)
}

// TestScrubberLoopFindsCorruption checks the Options.ScrubEvery wiring:
// the background scrubber notices at-rest damage without any caller
// invoking Scrub.
func TestScrubberLoopFindsCorruption(t *testing.T) {
	dir := t.TempDir()
	db := scrubTestDB(t, dir)
	db.Close()

	db2, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1, ScrubEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Damage the snapshot at rest while the store is live: its block
	// checksums are absolute, so the next scrubber tick must flag it.
	if err := FlipFileBit(filepath.Join(dir, "SNAPSHOT"), (snapFirstBlockOff+1)*8); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !db2.Corrupt() {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never flagged the corrupt snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if h := db2.Health(); h.CorruptUnit != UnitSnapshotBlock {
		t.Fatalf("CorruptUnit = %q, want %q", h.CorruptUnit, UnitSnapshotBlock)
	}
}
