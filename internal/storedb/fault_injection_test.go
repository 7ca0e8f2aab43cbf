package storedb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Fault-injection tests: scripted FaultPlans drive EIO, ENOSPC, torn
// writes, and metadata failures through the commit path and verify the
// fail-safe contract — the database turns sticky read-only, reads keep
// serving, and Reopen restores exactly the acknowledged state.

func putKey(db *DB, key string) error {
	return db.Update(func(tx *Tx) error {
		return tx.MustBucket("b").Put([]byte(key), []byte("v"))
	})
}

func mustHave(t *testing.T, db *DB, key string, want bool) {
	t.Helper()
	db.View(func(tx *Tx) error {
		_, ok := tx.MustBucket("b").Get([]byte(key))
		if ok != want {
			t.Errorf("key %q present=%v, want %v", key, ok, want)
		}
		return nil
	})
}

// testStickyFailure runs the canonical failure lifecycle for one fault
// rule aimed at the WAL append path: acked writes survive, the failing
// write and everything after it is refused, reads stay up, and Reopen
// is the way back.
func testStickyFailure(t *testing.T, rule *FaultRule) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := putKey(db, "good"); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(1, rule)
	plan.Install()
	err = putKey(db, "bad")
	UninstallFaults()
	if !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("faulted write err = %v, want ErrStorageFailed", err)
	}
	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired")
	}

	// The failure is sticky: later writes are refused up front.
	if err := putKey(db, "bad2"); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("write after failure err = %v, want ErrStorageFailed", err)
	}
	h := db.Health()
	if !h.Failed || h.Cause == "" {
		t.Fatalf("health = %+v, want failed with cause", h)
	}

	// Reads keep serving the last committed tree.
	mustHave(t, db, "good", true)
	mustHave(t, db, "bad", false)

	// Reopen replays, verifies, and restores writability.
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if db.Health().Failed {
		t.Fatal("still failed after successful reopen")
	}
	if db.Health().Reopens != 1 {
		t.Fatalf("reopens = %d, want 1", db.Health().Reopens)
	}
	if err := putKey(db, "after"); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
	mustHave(t, db, "good", true)
	mustHave(t, db, "after", true)
	mustHave(t, db, "bad", false)
	db.Close()

	// Cold recovery agrees: nothing acked lost, nothing unacked back.
	db2, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("cold recovery: %v", err)
	}
	defer db2.Close()
	mustHave(t, db2, "good", true)
	mustHave(t, db2, "after", true)
	mustHave(t, db2, "bad", false)
	mustHave(t, db2, "bad2", false)
	if got := db2.Seq(); got != 2 {
		t.Fatalf("recovered seq = %d, want 2", got)
	}
}

func TestStickyFailureOnWALSyncError(t *testing.T) {
	testStickyFailure(t, &FaultRule{Op: FaultSync, Label: "wal", Count: 1, Err: ErrInjectedIO})
}

func TestStickyFailureOnWALWriteENOSPC(t *testing.T) {
	testStickyFailure(t, &FaultRule{Op: FaultWrite, Label: "wal", Count: 1, Err: ErrInjectedNoSpace})
}

func TestStickyFailureOnTornWrite(t *testing.T) {
	// The device persists 5 bytes of the frame before failing — a torn
	// write that must never replay as a committed batch.
	testStickyFailure(t, &FaultRule{Op: FaultWrite, Label: "wal", Count: 1, Err: ErrInjectedIO, Short: 5})
}

// TestFailureReentersUnderPersistentFault: when the underlying fault
// persists across a reopen, the next write moves the database straight
// back to failed — it never half-works.
func TestFailureReentersUnderPersistentFault(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := putKey(db, "good"); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(1, &FaultRule{Op: FaultSync, Label: "wal", Err: ErrInjectedIO})
	plan.Install()
	defer UninstallFaults()
	if err := putKey(db, "bad"); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("err = %v, want ErrStorageFailed", err)
	}
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen with no tail to cut should succeed: %v", err)
	}
	if err := putKey(db, "bad2"); !errors.Is(err, ErrStorageFailed) {
		t.Fatalf("write under persistent fault err = %v, want ErrStorageFailed", err)
	}
	if !db.Health().Failed {
		t.Fatal("not failed again under persistent fault")
	}

	UninstallFaults()
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen after fault cleared: %v", err)
	}
	if err := putKey(db, "after"); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	mustHave(t, db, "good", true)
	mustHave(t, db, "after", true)
	mustHave(t, db, "bad", false)
}

// TestFaultGridRecovery injects every fault class at several offsets
// into a compacting workload and checks the invariant each time:
// acknowledged commits survive recovery, unacknowledged ones never
// appear, and the store resumes writable after Reopen.
func TestFaultGridRecovery(t *testing.T) {
	cases := []struct {
		name string
		rule FaultRule
	}{
		{"eio-wal-sync", FaultRule{Op: FaultSync, Label: "wal", Count: 1, Err: ErrInjectedIO}},
		{"enospc-wal-write", FaultRule{Op: FaultWrite, Label: "wal", Count: 1, Err: ErrInjectedNoSpace}},
		{"torn-wal-write", FaultRule{Op: FaultWrite, Label: "wal", Count: 1, Err: ErrInjectedIO, Short: 3}},
		{"eio-snapshot-sync", FaultRule{Op: FaultSync, Label: "snapshot", Count: 1, Err: ErrInjectedIO}},
		{"eio-dirsync", FaultRule{Op: FaultSyncDir, Count: 1, Err: ErrInjectedIO}},
		{"eio-rename", FaultRule{Op: FaultRename, Count: 1, Err: ErrInjectedIO}},
		{"eio-remove", FaultRule{Op: FaultRemove, Count: 1, Err: ErrInjectedIO}},
	}
	const attempts, compactEvery = 12, 3
	for _, tc := range cases {
		for after := 0; after < 5; after++ {
			t.Run(fmt.Sprintf("%s/after=%d", tc.name, after), func(t *testing.T) {
				dir := t.TempDir()
				// Explicit Compact calls keep the grid deterministic:
				// the snapshot-path faults must fire inside the scripted
				// workload, not whenever a background goroutine happens
				// to get scheduled.
				db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1, ReplLogBuffer: -1})
				if err != nil {
					t.Fatal(err)
				}
				rule := tc.rule
				rule.After = after
				plan := NewFaultPlan(1, &rule)
				plan.Install()

				var acked []string
				attempted := 0
				for i := 0; i < attempts; i++ {
					key := fmt.Sprintf("k%02d", i)
					attempted++
					if err := putKey(db, key); err != nil {
						break
					}
					acked = append(acked, key)
					if (i+1)%compactEvery == 0 && db.Compact() != nil {
						break
					}
				}
				UninstallFaults()

				if db.Health().Failed {
					if err := db.Reopen(); err != nil {
						t.Fatalf("reopen: %v", err)
					}
				}
				if err := putKey(db, "resume"); err != nil {
					t.Fatalf("resume write: %v", err)
				}
				db.Close()

				db2, err := Open(Options{Dir: dir, SyncWrites: true})
				if err != nil {
					t.Fatalf("cold recovery: %v", err)
				}
				defer db2.Close()
				for _, key := range acked {
					mustHave(t, db2, key, true)
				}
				for i := len(acked); i < attempted; i++ {
					mustHave(t, db2, fmt.Sprintf("k%02d", i), false)
				}
				mustHave(t, db2, "resume", true)
				if got, want := db2.Seq(), uint64(len(acked))+1; got != want {
					t.Fatalf("recovered seq = %d, want %d", got, want)
				}
			})
		}
	}
}

// TestGroupCommitAmortizesFsyncs drives concurrent writers against a
// device with modeled fsync latency and checks the group-commit win:
// fewer fsyncs than batches, one fsync per group.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	const writers, perWriter = 8, 15
	dir := t.TempDir()
	plan := NewFaultPlan(1, &FaultRule{Op: FaultSync, Label: "wal", Delay: time.Millisecond})
	plan.Install()
	defer UninstallFaults()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := putKey(db, fmt.Sprintf("w%02d-%03d", w, i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := db.Len(); got != writers*perWriter {
		t.Fatalf("len = %d, want %d", got, writers*perWriter)
	}
	h := db.Health()
	if h.Batches != writers*perWriter {
		t.Fatalf("batches = %d, want %d", h.Batches, writers*perWriter)
	}
	if h.Fsyncs >= h.Batches {
		t.Errorf("group commit did not amortize: %d fsyncs for %d batches", h.Fsyncs, h.Batches)
	}
	if h.Groups != h.Fsyncs {
		t.Errorf("groups = %d, fsyncs = %d; want one fsync per group", h.Groups, h.Fsyncs)
	}
}

// TestConcurrentWritersSurviveInjectedFailure fires one fault into a
// concurrent commit storm: every writer whose Update returned nil keeps
// its write through recovery; every writer that got an error finds its
// write absent. The whole-group failure path is exercised because the
// fault lands while several writers share a group.
func TestConcurrentWritersSurviveInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan(1,
		&FaultRule{Op: FaultSync, Label: "wal", Delay: 200 * time.Microsecond},
		&FaultRule{Op: FaultSync, Label: "wal", After: 5, Count: 1, Err: ErrInjectedIO},
	)
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	plan.Install()

	const writers, perWriter = 8, 30
	var mu sync.Mutex
	acked := map[string]bool{}
	failed := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%02d-%03d", w, i)
				err := putKey(db, key)
				mu.Lock()
				if err == nil {
					acked[key] = true
				} else {
					failed[key] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	UninstallFaults()

	if len(failed) == 0 {
		t.Fatal("fault never failed a write")
	}
	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := putKey(db, "resume"); err != nil {
		t.Fatalf("resume write: %v", err)
	}
	db.Close()

	db2, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("cold recovery: %v", err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		b := tx.MustBucket("b")
		for key := range acked {
			if _, ok := b.Get([]byte(key)); !ok {
				t.Errorf("acked write %s lost", key)
			}
		}
		for key := range failed {
			if _, ok := b.Get([]byte(key)); ok {
				t.Errorf("failed write %s resurrected", key)
			}
		}
		return nil
	})
	if got, want := db2.Seq(), uint64(len(acked))+1; got != want {
		t.Fatalf("recovered seq = %d, want %d (acked+resume)", got, want)
	}
}

// TestReplicaApplySticksOnFault: ApplyBatch shares the fail-safe
// machinery — a replica whose WAL dies refuses further applies until
// reopened, and never acks a batch it did not persist.
func TestReplicaApplySticksOnFault(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetReplicaMode(true)

	mkBatch := func(seq uint64, key string) Batch {
		return Batch{Seq: seq, Ops: []Op{{Key: []byte("b\x00" + key), Val: []byte("v")}}}
	}
	if err := db.ApplyBatch(mkBatch(1, "a")); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan(1, &FaultRule{Op: FaultSync, Label: "wal", Count: 1, Err: ErrInjectedIO})
	plan.Install()
	err = db.ApplyBatch(mkBatch(2, "b"))
	UninstallFaults()
	if !errorsIsStorageFailed(err) {
		t.Fatalf("faulted apply err = %v, want ErrStorageFailed", err)
	}
	if err := db.ApplyBatch(mkBatch(2, "b")); !errorsIsStorageFailed(err) {
		t.Fatalf("apply after failure err = %v, want ErrStorageFailed", err)
	}

	if err := db.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The failed batch was never applied; seq 2 must still be accepted.
	if err := db.ApplyBatch(mkBatch(2, "b")); err != nil {
		t.Fatalf("reapply after reopen: %v", err)
	}
	if got := db.Seq(); got != 2 {
		t.Fatalf("seq = %d, want 2", got)
	}
}

func errorsIsStorageFailed(err error) bool { return errors.Is(err, ErrStorageFailed) }
