package storedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Online scrub: proactively re-read every durable checksum so silent
// bit rot is found while a healthy replica still exists to repair from,
// not at the next restart. A scrub pass verifies the snapshot block by
// block (scrubSnapshotFile) and re-derives the WAL history digest chain
// frame by frame from the snapshot anchor, comparing it to the chain
// value the store acknowledged commits with. Any mismatch moves the
// store to the sticky ErrStorageCorrupt state naming the damaged unit;
// reads keep serving the in-memory tree throughout.

// Corruption units, as reported by StorageHealth.CorruptUnit and
// ScrubReport.Unit.
const (
	// UnitSnapshotHeader is the snapshot's header block (sequence,
	// digest anchor, entry count).
	UnitSnapshotHeader = "snapshot-header"
	// UnitSnapshotBlock is a snapshot bucket block carrying entries.
	UnitSnapshotBlock = "snapshot-block"
	// UnitWALFrame is a WAL frame below the acknowledged sequence.
	UnitWALFrame = "wal-frame"
)

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// SnapshotBlocks is the number of snapshot blocks whose checksums
	// verified this pass (header included).
	SnapshotBlocks int
	// WALFrames is the number of WAL frames verified and folded into
	// the recomputed digest chain.
	WALFrames int
	// Clean reports whether the pass found no corruption.
	Clean bool
	// Unit names the corrupt unit when !Clean: UnitSnapshotHeader,
	// UnitSnapshotBlock, or UnitWALFrame.
	Unit string
	// Detail is the corruption error text when !Clean.
	Detail string
}

// Scrub runs one full verification pass over the durable state and
// returns what it checked. On corruption the report names the unit, the
// database moves to the sticky corrupt state, and the error wraps
// ErrCorrupt. In-memory stores scrub trivially clean. Scrub serializes
// with compaction (compactMu) but never blocks commits.
func (db *DB) Scrub(ctx context.Context) (ScrubReport, error) {
	if db.closed.Load() {
		return ScrubReport{}, ErrClosed
	}
	if db.opts.Dir == "" {
		db.finishScrub()
		return ScrubReport{Clean: true}, nil
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if db.closed.Load() {
		return ScrubReport{}, ErrClosed
	}

	rep := ScrubReport{Clean: true}
	// corrupt is the pass's one verdict: the store turns sticky corrupt
	// and the report names the unit.
	corrupt := func(unit string, cause error) (ScrubReport, error) {
		db.markCorrupt(unit, cause)
		rep.Clean, rep.Unit, rep.Detail = false, unit, cause.Error()
		db.finishScrub()
		return rep, cause
	}

	// Snapshot blocks. The file is stable under compactMu.
	snapPath := filepath.Join(db.opts.Dir, "SNAPSHOT")
	if _, err := os.Stat(snapPath); err == nil {
		_, _, blocks, unit, serr := scrubSnapshotFile(snapPath)
		rep.SnapshotBlocks = blocks
		db.scrubBlocks.Add(uint64(blocks))
		if serr != nil {
			return corrupt(unit, serr)
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}

	// WAL frames and the digest chain. The scan runs without commitMu,
	// so the seqlock decides whether what it saw is evidence
	// (walQuiescentSince): a stable even generation proves no
	// maintenance path swapped or truncated the log mid-scan. Frames
	// acknowledged before the scan started are fully on disk by then
	// (the append completes before seq advances), so a scan of a
	// quiescent log that ends below them found corruption, not a race
	// (noteWalScanShort). The snapshot anchor cannot move during the
	// pass: everything that moves it holds compactMu.
	genBefore := db.walMutGen.Load()
	durable := db.seq.Load()
	anchorSeq := db.snapSeq.Load()
	dig := db.snapDigest.Load()
	frames := 0
	last, err := scanWalFrames(db.walPath(), func(b Batch, payload []byte, _ int64) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if b.Seq <= anchorSeq {
			return nil // predates the snapshot anchor; not part of the chain
		}
		dig = chainStep(dig, payload)
		frames++
		return nil
	})
	if err != nil {
		return rep, err // context cancellation or an I/O error, not a verdict
	}
	rep.WALFrames = frames
	db.scrubBlocks.Add(uint64(frames))

	if cerr := db.noteWalScanShort(last, durable, genBefore); cerr != nil {
		return corrupt(UnitWALFrame, cerr)
	}
	if last > anchorSeq && db.walQuiescentSince(genBefore) {
		if want, known := db.DigestAt(last); known && want != dig {
			return corrupt(UnitWALFrame, fmt.Errorf("%w: scrub: wal chain digest %016x at seq %d, committed chain says %016x", ErrCorrupt, dig, last, want))
		}
	}
	db.finishScrub()
	return rep, nil
}

func (db *DB) finishScrub() {
	db.scrubRuns.Add(1)
	db.lastScrub.Store(time.Now().Unix())
}

// scrubberLoop runs Scrub at Options.ScrubEvery until Close.
func (db *DB) scrubberLoop() {
	defer db.bg.Done()
	t := time.NewTicker(db.opts.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-db.bgStop:
			return
		case <-t.C:
			_, _ = db.Scrub(context.Background())
		}
	}
}

// QuarantineCorrupt moves the corrupt store's data files (snapshot,
// WAL, any leftover temporaries) into a fresh subdirectory under
// <dir>/quarantine and returns its path. The files are preserved, never
// deleted — they are the corruption evidence and the only copy of any
// batches a repair source might not hold. After a successful
// quarantine, RestoreSnapshotFrom may rebuild the store from a verified
// stream; until then it refuses with ErrQuarantineRequired. Calling
// this on a store that is not corrupt is an error.
func (db *DB) QuarantineCorrupt() (string, error) {
	if db.closed.Load() {
		return "", ErrClosed
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if !db.Corrupt() {
		return "", fmt.Errorf("storedb: quarantine: store is not corrupt")
	}
	if db.opts.Dir == "" {
		db.amendFault(func(f *fault) { f.quarantined = true })
		return "", nil
	}

	if db.wal != nil {
		_ = db.wal.close()
		db.wal = nil
	}
	dest, err := nextQuarantineDir(db.opts.Dir)
	if err != nil {
		return "", err
	}
	db.walMutGen.Add(1)
	defer db.walMutGen.Add(1)
	moved := false
	for _, name := range []string{"SNAPSHOT", "WAL", "SNAPSHOT.tmp", "WAL.swap"} {
		src := filepath.Join(db.opts.Dir, name)
		if _, serr := os.Stat(src); serr != nil {
			continue
		}
		if rerr := os.Rename(src, filepath.Join(dest, name)); rerr != nil {
			return "", fmt.Errorf("storedb: quarantine %s: %w", name, rerr)
		}
		moved = true
	}
	if moved {
		if err := realSyncDir(dest); err != nil {
			return "", fmt.Errorf("storedb: quarantine sync: %w", err)
		}
		if err := realSyncDir(db.opts.Dir); err != nil {
			return "", fmt.Errorf("storedb: quarantine sync dir: %w", err)
		}
	}
	db.amendFault(func(f *fault) { f.quarantined = true })
	return dest, nil
}

// nextQuarantineDir creates and returns the first unused
// quarantine/corrupt-NNN directory under dir.
func nextQuarantineDir(dir string) (string, error) {
	base := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(base, 0o700); err != nil {
		return "", fmt.Errorf("storedb: create quarantine dir: %w", err)
	}
	for i := 0; ; i++ {
		p := filepath.Join(base, fmt.Sprintf("corrupt-%03d", i))
		if _, err := os.Stat(p); os.IsNotExist(err) {
			if err := os.Mkdir(p, 0o700); err != nil {
				return "", fmt.Errorf("storedb: create quarantine dir: %w", err)
			}
			return p, nil
		}
	}
}
