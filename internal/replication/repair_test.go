package replication

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// servePeer mounts the replication endpoints over db, making it a
// repair source.
func servePeer(t *testing.T, db *storedb.DB) *httptest.Server {
	t.Helper()
	pub := NewPublisher(db)
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathReplSnapshot, pub.ServeSnapshot)
	mux.HandleFunc(wire.PathReplWAL, pub.ServeWAL)
	mux.HandleFunc(wire.PathReplDigest, pub.ServeDigest)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// buildDurablePrimary makes a durable primary with a snapshot and a
// WAL tail: 10 keys folded into the snapshot by an explicit
// compaction, 4 more in the WAL. It returns the store, its directory,
// and the number of keys acked.
func buildDurablePrimary(t *testing.T) (*storedb.DB, string, int) {
	t.Helper()
	dir := t.TempDir()
	db, err := storedb.Open(storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 10; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		put(t, db, "b", fmt.Sprintf("k%02d", i), "v")
	}
	return db, dir, 14
}

// corruptStore flips one at-rest snapshot bit and scrubs, moving db to
// the sticky corrupt state.
func corruptStore(t *testing.T, db *storedb.DB, dir string) {
	t.Helper()
	if err := storedb.FlipFileBit(filepath.Join(dir, "SNAPSHOT"), 300); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(context.Background()); !errors.Is(err, storedb.ErrCorrupt) {
		t.Fatalf("scrub after flip: %v", err)
	}
}

// TestRepairFromReplica is the full self-healing loop: a corrupt
// durable primary quarantines its damaged files and restores itself
// from a replica that replayed its whole history, converging
// byte-identically — digest equality at equal chain positions — with
// zero acked-write loss.
func TestRepairFromReplica(t *testing.T) {
	// The replica tails the primary over HTTP.
	primary, dir, acked := buildDurablePrimary(t)
	primarySrv := servePeer(t, primary)
	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: primarySrv.URL, ID: "r1"}
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatalf("replica sync: %v", err)
	}

	corruptStore(t, primary, dir)
	target, tdig := primary.ChainPosition()

	// The primary now repairs itself from the replica.
	repSrv := servePeer(t, rdb)
	r := &Repairer{DB: primary, Source: repSrv.URL, ID: "primary", Poll: 5 * time.Millisecond}
	if err := r.Repair(context.Background()); err != nil {
		t.Fatalf("repair: %v", err)
	}

	if primary.Corrupt() || primary.Health().Failed {
		t.Fatalf("primary unhealthy after repair: %+v", primary.Health())
	}
	// Byte-identical convergence: same chain position on both sides.
	pSeq, pDig := primary.ChainPosition()
	rSeq, rDig := rdb.ChainPosition()
	if pSeq != target || pDig != tdig {
		t.Fatalf("primary chain (%d, %016x) after repair, acked (%d, %016x)", pSeq, pDig, target, tdig)
	}
	if rSeq != pSeq || rDig != pDig {
		t.Fatalf("replica chain (%d, %016x), primary (%d, %016x)", rSeq, rDig, pSeq, pDig)
	}
	// Zero acked loss: every key survives, and writes flow again.
	for i := 0; i < acked; i++ {
		if _, ok := get(t, primary, "b", fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("acked key k%02d lost in repair", i)
		}
	}
	put(t, primary, "b", "after-repair", "v")
	if s := r.repairs.Load(); s != 1 {
		t.Errorf("repairs counter = %d, want 1", s)
	}
}

// TestRepairWaitsForLaggingSource checks step 2 of the repair contract:
// a source that has not yet replayed everything the corrupt store acked
// is waited for, not restored from — restoring early would lose acked
// writes. The corrupt store keeps serving the replication endpoints
// from memory, which is exactly what lets the source catch up.
func TestRepairWaitsForLaggingSource(t *testing.T) {
	// Corrupt the primary with the replica fully behind (never synced).
	primary, dir, acked := buildDurablePrimary(t)
	primarySrv := servePeer(t, primary)
	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: primarySrv.URL, ID: "r1"}
	corruptStore(t, primary, dir)

	repSrv := servePeer(t, rdb)
	r := &Repairer{DB: primary, Source: repSrv.URL, ID: "primary", Poll: 5 * time.Millisecond}

	done := make(chan error, 1)
	go func() { done <- r.Repair(context.Background()) }()

	select {
	case err := <-done:
		t.Fatalf("repair completed against an empty source: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// The corrupt primary still serves /repl/*; let the replica catch up.
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatalf("replica sync from corrupt primary: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("repair after source caught up: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("repair never completed after the source caught up")
	}
	for i := 0; i < acked; i++ {
		if _, ok := get(t, primary, "b", fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("acked key k%02d lost in repair", i)
		}
	}
}

// TestRepairRefusesForkedSource checks that a source whose history
// disagrees at the acked position is refused before anything is
// quarantined or overwritten: repairing from a fork would silently
// rewrite acknowledged history.
func TestRepairRefusesForkedSource(t *testing.T) {
	// An independent store with its own, different history.
	fork, err := storedb.Open(storedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fork.Close() })
	for i := 0; i < 20; i++ {
		put(t, fork, "b", fmt.Sprintf("other%02d", i), "v")
	}
	forkSrv := servePeer(t, fork)

	primary, dir, _ := buildDurablePrimary(t)
	corruptStore(t, primary, dir)
	r := &Repairer{DB: primary, Source: forkSrv.URL, ID: "primary", Poll: 5 * time.Millisecond}
	if err := r.Repair(context.Background()); !errors.Is(err, ErrRepairForked) {
		t.Fatalf("repair from fork: %v, want ErrRepairForked", err)
	}
	if !primary.Corrupt() {
		t.Fatal("refused repair cleared the corrupt state")
	}
	// Nothing was quarantined: the evidence question never arose.
	if n := r.quarantines.Load(); n != 0 {
		t.Errorf("quarantines = %d, want 0", n)
	}
}

// TestRepairNoopOnHealthyStore guards the supervisor loop's common
// path.
func TestRepairNoopOnHealthyStore(t *testing.T) {
	db, err := storedb.Open(storedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := &Repairer{DB: db, Source: "http://unreachable.invalid"}
	if err := r.Repair(context.Background()); err != nil {
		t.Fatalf("repair on healthy store: %v", err)
	}
	if n := r.repairs.Load(); n != 0 {
		t.Errorf("repairs = %d, want 0", n)
	}
}

// TestSuperviseRepairDrivesRecovery wires the recovery loop end to end:
// corruption appears, the supervisor notices and repairs from the
// configured peer without any operator action.
func TestSuperviseRepairDrivesRecovery(t *testing.T) {
	primary, dir, acked := buildDurablePrimary(t)
	primarySrv := servePeer(t, primary)
	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: primarySrv.URL, ID: "r1"}
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatalf("replica sync: %v", err)
	}
	corruptStore(t, primary, dir)

	repSrv := servePeer(t, rdb)
	r := &Repairer{DB: primary, Source: repSrv.URL, ID: "primary", Poll: 5 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Supervise(ctx, primary, nil, r, 5*time.Millisecond, nil)

	deadline := time.Now().Add(5 * time.Second)
	for primary.Corrupt() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never repaired the corrupt store")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < acked; i++ {
		if _, ok := get(t, primary, "b", fmt.Sprintf("k%02d", i)); !ok {
			t.Fatalf("acked key k%02d lost in repair", i)
		}
	}
	put(t, primary, "b", "after", "v")
}
