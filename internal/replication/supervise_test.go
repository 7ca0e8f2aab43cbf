package replication

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"softreputation/internal/storedb"
)

// failNextSync trips db into the sticky failed state with one injected
// WAL fsync fault under write, which must report ErrStorageFailed.
func failNextSync(t *testing.T, write func() error) {
	t.Helper()
	plan := storedb.NewFaultPlan(&storedb.FaultRule{Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO})
	plan.Install()
	err := write()
	storedb.UninstallFaults()
	if !errors.Is(err, storedb.ErrStorageFailed) {
		t.Fatalf("faulted write err = %v, want ErrStorageFailed", err)
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuperviseReopenRecovers drives the daemon's storage supervisor
// through a failure: a transient WAL fsync fault trips the sticky
// state, the supervisor notices and reopens, and writes come back
// without any outside intervention.
func TestSuperviseReopenRecovers(t *testing.T) {
	db, err := storedb.Open(storedb.Options{Dir: t.TempDir(), SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	put(t, db, "b", "good", "v")
	failNextSync(t, func() error {
		return db.Update(func(tx *storedb.Tx) error { return tx.MustBucket("b").Put([]byte("bad"), []byte("v")) })
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Supervise(ctx, db, nil, nil, 5*time.Millisecond, nil)

	deadline := time.Now().Add(5 * time.Second)
	for db.Health().Failed && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h := db.Health(); h.Failed {
		t.Fatalf("supervisor never recovered: %+v", h)
	}
	put(t, db, "b", "after", "v")
	for key, want := range map[string]bool{"good": true, "bad": false, "after": true} {
		if _, ok := get(t, db, "b", key); ok != want {
			t.Errorf("key %q present=%v, want %v", key, ok, want)
		}
	}
}

// TestSuperviseReopensThenPulls fails a durable replica's store while
// it applies a batch, then hands it to the supervisor: the store is
// reopened first and only then pulls, so the replica catches up without
// a single failed pull.
func TestSuperviseReopensThenPulls(t *testing.T) {
	primary, srv, _ := newPrimary(t, 64)
	for i := 0; i < 5; i++ {
		put(t, primary, "b", fmt.Sprintf("k%d", i), "v")
	}
	rdb, err := storedb.Open(storedb.Options{Dir: t.TempDir(), SyncWrites: true, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	rdb.SetReplicaMode(true)
	failNextSync(t, func() error {
		return primary.Since(0, 1, rdb.ApplyBatch)
	})

	rep := &Replica{DB: rdb, Primary: srv.URL, ID: "r1"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Supervise(ctx, rdb, rep, nil, 5*time.Millisecond, nil)

	waitFor(t, "caught the replica up", func() bool { return rdb.Seq() == primary.Seq() })
	if h := rdb.Health(); h.Failed || h.Reopens != 1 {
		t.Fatalf("replica storage after recovery: %+v, want healthy after one reopen", h)
	}
	if s := rep.Stats(); s.Errors != 0 {
		t.Fatalf("pull errors = %d, want 0: no pull runs against a failed store", s.Errors)
	}
	for i := 0; i < 5; i++ {
		if _, ok := get(t, rdb, "b", fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing on the replica", i)
		}
	}
}

// TestSuperviseFollowsReplicaMode checks that the pull is the replica
// mode's action, not the node's: a store that leaves replica mode
// (promotion) stops pulling, and one that returns to it pulls again.
func TestSuperviseFollowsReplicaMode(t *testing.T) {
	primary, srv, _ := newPrimary(t, 64)
	put(t, primary, "b", "k0", "v")
	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: srv.URL, ID: "r1"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Supervise(ctx, rdb, rep, nil, 5*time.Millisecond, nil)
	waitFor(t, "pulled", func() bool { return rdb.Seq() == primary.Seq() })

	rdb.SetReplicaMode(false)
	before := rep.Stats().Pulls
	time.Sleep(200 * time.Millisecond) // forty rounds at this poll
	// A Sync already running when the mode flipped may finish its pull.
	if after := rep.Stats().Pulls; after > before+1 {
		t.Fatalf("pulls went %d -> %d with the store out of replica mode", before, after)
	}

	put(t, primary, "b", "k1", "v")
	rdb.SetReplicaMode(true)
	waitFor(t, "pulled again in replica mode", func() bool { return rdb.Seq() == primary.Seq() })
	if _, ok := get(t, rdb, "b", "k1"); !ok {
		t.Fatal("k1 missing after the store returned to replica mode")
	}
}
