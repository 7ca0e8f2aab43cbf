package storedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Crash-recovery tests. crashSim drives the testFS hooks to simulate a
// power loss at any chosen fsync point of a commit or compaction:
//
//   - Data written to a file but not yet fsynced vanishes (the file is
//     truncated back to its last synced size).
//   - A rename not yet covered by a directory fsync is rolled back: the
//     file reappears at its old path and the old destination content
//     returns. A remove in the same window is adversarially treated as
//     durable — real filesystems may persist independent metadata
//     updates in any order, which is exactly the hazard the
//     rename-then-dir-sync ordering exists to close.
//
// The main test runs a scripted workload, killing at the 1st, 2nd, 3rd,
// ... sync point until a run completes untouched, and after every crash
// verifies the invariant: recovery keeps every acknowledged commit and
// never resurrects an unacknowledged one.

var errKilled = errors.New("simulated power loss")

type nsEvent struct {
	kind       string // "rename", "remove", or "create"
	oldPath    string
	newPath    string
	saved      []byte // prior content of the destination (rename) — nil if absent
	savedOK    bool
	oldDurable int64 // prior durable size of the destination
}

type crashSim struct {
	t   *testing.T
	dir string
	// mu serializes the hooks: with background compaction the commit
	// path and the compactor goroutine hit the filesystem concurrently,
	// and the simulator's bookkeeping must stay consistent across both.
	mu      sync.Mutex
	killAt  int // 1-based index of the sync-family call that fails
	calls   int
	killed  bool
	durable map[string]int64
	pending []nsEvent // namespace ops since the last successful dir sync
}

func newCrashSim(t *testing.T, dir string, killAt int) *crashSim {
	return &crashSim{t: t, dir: dir, killAt: killAt, durable: make(map[string]int64)}
}

// install points the package's fsHooks at the simulator. The caller
// must arrange restore (defer sim.uninstall()).
func (s *crashSim) install() {
	installFS(&fsHooks{
		write: func(f *os.File, p []byte, label string) (int, error) {
			s.mu.Lock()
			dead := s.killed
			s.mu.Unlock()
			if dead {
				return 0, errKilled
			}
			return f.Write(p)
		},
		created: func(path string) {
			// The new file's directory entry is not durable until the
			// next dir sync; a power loss before then loses the file.
			s.mu.Lock()
			s.pending = append(s.pending, nsEvent{kind: "create", oldPath: path})
			s.mu.Unlock()
		},
		sync: func(f *os.File, label string) error {
			if s.tick() {
				return errKilled
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if info, err := f.Stat(); err == nil {
				s.mu.Lock()
				s.durable[f.Name()] = info.Size()
				s.mu.Unlock()
			}
			return nil
		},
		syncDir: func(path string) error {
			if s.tick() {
				return errKilled
			}
			s.mu.Lock()
			s.pending = nil // namespace ops are now durable
			s.mu.Unlock()
			return nil
		},
		rename: func(oldpath, newpath string) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.killed {
				return errKilled
			}
			ev := nsEvent{kind: "rename", oldPath: oldpath, newPath: newpath, oldDurable: s.durable[newpath]}
			if prior, err := os.ReadFile(newpath); err == nil {
				ev.saved, ev.savedOK = prior, true
			}
			if err := os.Rename(oldpath, newpath); err != nil {
				return err
			}
			s.pending = append(s.pending, ev)
			s.durable[newpath] = s.durable[oldpath]
			delete(s.durable, oldpath)
			return nil
		},
		remove: func(path string) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.killed {
				return errKilled
			}
			if err := os.Remove(path); err != nil {
				return err
			}
			s.pending = append(s.pending, nsEvent{kind: "remove", oldPath: path})
			delete(s.durable, path)
			return nil
		},
	})
}

func (s *crashSim) uninstall() { installFS(nil) }

// tick counts one sync point and reports whether the simulated power
// loss hits it. After the kill every further operation fails too — the
// process is dead.
func (s *crashSim) tick() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return true
	}
	s.calls++
	if s.killAt > 0 && s.calls == s.killAt {
		s.killed = true
		return true
	}
	return false
}

// wasKilled reports whether the simulated power loss has fired.
func (s *crashSim) wasKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// powerLoss rewrites the directory to its worst-case post-crash state:
// pending renames roll back and pending creates vanish (their dir
// entry never reached disk) while pending removes stick, then every
// surviving file is truncated to its last fsynced size.
func (s *crashSim) powerLoss() {
	for i := len(s.pending) - 1; i >= 0; i-- {
		ev := s.pending[i]
		if ev.kind == "create" {
			if err := os.Remove(ev.oldPath); err != nil && !os.IsNotExist(err) {
				s.t.Fatalf("rollback create: %v", err)
			}
			delete(s.durable, ev.oldPath)
			continue
		}
		if ev.kind != "rename" {
			continue // removes are adversarially durable
		}
		if err := os.Rename(ev.newPath, ev.oldPath); err != nil {
			s.t.Fatalf("rollback rename: %v", err)
		}
		s.durable[ev.oldPath] = s.durable[ev.newPath]
		if ev.savedOK {
			if err := os.WriteFile(ev.newPath, ev.saved, 0o600); err != nil {
				s.t.Fatalf("rollback rename content: %v", err)
			}
			s.durable[ev.newPath] = ev.oldDurable
		} else {
			delete(s.durable, ev.newPath)
		}
	}
	s.pending = nil

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		if err := os.Truncate(path, s.durable[path]); err != nil {
			s.t.Fatalf("truncate %s: %v", path, err)
		}
	}
}

// TestCrashAtEverySyncPoint kills the process at every fsync point of a
// commit-heavy workload (including mid-compaction) and checks that
// recovery preserves exactly the acknowledged commits: nothing acked is
// lost, nothing unacked is resurrected. The background arm runs the
// default configuration, where the compactor goroutine's snapshot
// writes and WAL tail swaps race the live group commits — every
// interleaving of a kill with that race must still uphold the
// invariant. The explicit arm disables auto-compaction and calls
// Compact at every third commit, which pins the kill points of the
// inline snapshot-then-reset path to the script.
func TestCrashAtEverySyncPoint(t *testing.T) {
	for _, arm := range []struct {
		name     string
		explicit bool
	}{
		{"background", false},
		{"explicit", true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			crashAtEverySyncPoint(t, arm.explicit)
		})
	}
}

func crashAtEverySyncPoint(t *testing.T, explicit bool) {
	const commits, compactEvery = 9, 3
	for killAt := 1; ; killAt++ {
		dir := t.TempDir()
		sim := newCrashSim(t, dir, killAt)
		sim.install()

		acked := map[string]bool{}
		opts := Options{Dir: dir, SyncWrites: true, CompactEvery: compactEvery, ReplLogBuffer: -1}
		if explicit {
			opts.CompactEvery = -1
		}
		db, err := Open(opts)
		switch {
		case err != nil && !sim.wasKilled():
			sim.uninstall()
			t.Fatalf("killAt=%d: open: %v", killAt, err)
		case err != nil:
			// The kill landed inside Open itself (e.g. the WAL-create
			// directory sync): nothing was acked, recovery is checked
			// below.
		default:
			for i := 0; i < commits; i++ {
				key := fmt.Sprintf("k%02d", i)
				err := db.Update(func(tx *Tx) error {
					return tx.MustBucket("b").Put([]byte(key), []byte("v"))
				})
				if err != nil {
					// A failed commit — or the sticky failed state a
					// dead compaction left behind — means the process
					// is dead.
					break
				}
				acked[key] = true
				if explicit && (i+1)%compactEvery == 0 && db.Compact() != nil {
					break // a dead compaction is a dead process too
				}
			}
			db.Close()
		}

		survived := !sim.wasKilled()
		sim.powerLoss()
		sim.uninstall()

		// Recover and check the invariant.
		db2, err := Open(Options{Dir: dir, SyncWrites: true})
		if err != nil {
			t.Fatalf("killAt=%d: recovery failed: %v", killAt, err)
		}
		err = db2.View(func(tx *Tx) error {
			b := tx.MustBucket("b")
			for i := 0; i < commits; i++ {
				key := fmt.Sprintf("k%02d", i)
				_, present := b.Get([]byte(key))
				if acked[key] && !present {
					t.Errorf("killAt=%d: acked commit %s lost", killAt, key)
				}
				if !acked[key] && present {
					t.Errorf("killAt=%d: unacked commit %s resurrected", killAt, key)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		db2.Close()

		if survived {
			// The workload outran the kill point: every sync point has
			// been exercised.
			if killAt < 5 {
				t.Fatalf("workload hit only %d sync points; test is vacuous", killAt-1)
			}
			return
		}
	}
}

// TestSnapshotRenameDurableBeforeWALRemoval is the regression test for
// the compaction durability bug: the snapshot rename must be made
// durable (directory fsync) before the WAL it replaces is removed.
// Otherwise a crash can persist the removal but lose the rename,
// leaving the old snapshot with no log — every commit since the old
// snapshot would be lost.
func TestSnapshotRenameDurableBeforeWALRemoval(t *testing.T) {
	dir := t.TempDir()
	var opsMu sync.Mutex
	var ops []string
	note := func(op string) {
		opsMu.Lock()
		ops = append(ops, op)
		opsMu.Unlock()
	}
	installFS(&fsHooks{
		sync: func(f *os.File, label string) error {
			note("sync:" + label)
			return f.Sync()
		},
		syncDir: func(path string) error {
			note("syncdir")
			return nil
		},
		rename: func(oldpath, newpath string) error {
			note("rename:" + filepath.Base(newpath))
			return os.Rename(oldpath, newpath)
		},
		remove: func(path string) error {
			note("remove:" + filepath.Base(path))
			return os.Remove(path)
		},
	})
	defer installFS(nil)

	db, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	ops = nil
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	idx := func(op string) int {
		for i, o := range ops {
			if o == op {
				return i
			}
		}
		return -1
	}
	rename := idx("rename:SNAPSHOT")
	remove := idx("remove:WAL")
	if rename < 0 || remove < 0 {
		t.Fatalf("compaction ops missing rename/remove: %v", ops)
	}
	syncBetween := false
	for i := rename + 1; i < remove; i++ {
		if ops[i] == "syncdir" {
			syncBetween = true
		}
	}
	if !syncBetween {
		t.Fatalf("no directory fsync between snapshot rename and WAL removal: %v", ops)
	}
	// And the removal itself must be followed by a directory fsync so
	// stale batches cannot reappear after the snapshot supersedes them.
	syncAfter := false
	for i := remove + 1; i < len(ops); i++ {
		if ops[i] == "syncdir" {
			syncAfter = true
		}
	}
	if !syncAfter {
		t.Fatalf("no directory fsync after WAL removal: %v", ops)
	}
}

// TestWALCreateDurableBeforeFirstCommit is the regression test for the
// WAL-creation durability bug: a freshly created log file's directory
// entry must be fsynced before the first commit is acknowledged,
// otherwise a crash right after the first commit can lose the whole
// file — and with it an acked write. (The kill-at-every-sync suite
// exercises the crash itself; this pins the ordering.)
func TestWALCreateDurableBeforeFirstCommit(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	installFS(&fsHooks{
		created: func(path string) {
			ops = append(ops, "create:"+filepath.Base(path))
		},
		syncDir: func(path string) error {
			ops = append(ops, "syncdir")
			return realSyncDir(path)
		},
		sync: func(f *os.File, label string) error {
			ops = append(ops, "sync:"+label)
			return f.Sync()
		},
	})
	defer installFS(nil)

	db, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	create, dirSync, firstCommit := -1, -1, -1
	for i, op := range ops {
		switch {
		case op == "create:WAL" && create < 0:
			create = i
		case op == "syncdir" && create >= 0 && dirSync < 0:
			dirSync = i
		case op == "sync:wal" && firstCommit < 0:
			firstCommit = i
		}
	}
	if create < 0 {
		t.Fatalf("WAL never created: %v", ops)
	}
	if dirSync < 0 || dirSync > firstCommit {
		t.Fatalf("no directory fsync between WAL creation and first commit: %v", ops)
	}
}

// TestFailedWALSyncDoesNotResurrect covers the writer-side half of the
// invariant directly: a commit whose WAL fsync fails is reported as
// failed, and the batch bytes must not linger where recovery would
// replay them as committed.
func TestFailedWALSyncDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	failNext := false
	installFS(&fsHooks{
		sync: func(f *os.File, label string) error {
			if failNext && label == "wal" {
				failNext = false
				return errors.New("injected sync failure")
			}
			return f.Sync()
		},
	})
	defer installFS(nil)

	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte("good"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	failNext = true
	err = db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte("bad"), []byte("v"))
	})
	if err == nil {
		t.Fatal("expected sync failure")
	}
	// The failed batch must not be visible now...
	db.View(func(tx *Tx) error {
		if _, ok := tx.MustBucket("b").Get([]byte("bad")); ok {
			t.Fatal("failed commit visible in-memory")
		}
		return nil
	})
	db.Close()

	// ...and must not come back after recovery.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		b := tx.MustBucket("b")
		if _, ok := b.Get([]byte("good")); !ok {
			t.Fatal("acked commit lost")
		}
		if _, ok := b.Get([]byte("bad")); ok {
			t.Fatal("unacked commit resurrected by recovery")
		}
		return nil
	})
	if got := db2.Seq(); got != 1 {
		t.Fatalf("recovered seq = %d, want 1", got)
	}
}
