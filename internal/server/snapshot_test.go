package server

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Tests for the one-snapshot property of a lookup miss: everything a
// report shows is read in a single storedb.View, on a primary, on a
// replica and in the lean brownout form.

// snapshotFixture is a primary and a replica of it, holding one program
// with three visible comments by three authors, plus two captured write
// sets that move every number a report shows — the score, the vendor
// score and each author's trust factor — to 3 (state A) or to 7
// (state B).
type snapshotFixture struct {
	primary, replica *Server
	meta             core.SoftwareMeta
	stateA, stateB   []storedb.Op
}

const snapshotAuthors = 3

func newSnapshotFixture(t *testing.T) *snapshotFixture {
	t.Helper()
	primary, _ := newTestServer(t, nil)
	store := primary.Store()
	f := &snapshotFixture{primary: primary, meta: testMeta(1)}
	if _, err := store.UpsertSoftware(f.meta, vclock.Epoch); err != nil {
		t.Fatal(err)
	}
	authors := make([]string, snapshotAuthors)
	for i := range authors {
		authors[i] = fmt.Sprintf("author-%d", i)
		u := repo.User{Username: authors[i], EmailHash: "hash-" + authors[i], Activated: true, Trust: core.NewTrust(vclock.Epoch)}
		if err := store.CreateUser(u); err != nil {
			t.Fatal(err)
		}
		r := core.Rating{UserID: authors[i], Software: f.meta.ID, Score: 5, At: vclock.Epoch}
		if _, err := store.AddRating(r, "comment by "+authors[i]); err != nil {
			t.Fatal(err)
		}
	}

	// capture runs writes through the ordinary setters and returns the
	// operations they committed, bucket prefixes included.
	capture := func(v float64) []storedb.Op {
		t.Helper()
		from := store.Seq()
		if err := store.SetScore(core.SoftwareScore{Software: f.meta.ID, Score: v, Votes: snapshotAuthors}); err != nil {
			t.Fatal(err)
		}
		if err := store.SetVendorScore(core.VendorScore{Vendor: f.meta.Vendor, Score: v, SoftwareCount: 1}); err != nil {
			t.Fatal(err)
		}
		for _, name := range authors {
			u, found, err := store.GetUser(name)
			if err != nil || !found {
				t.Fatalf("GetUser(%s) = %v, %v", name, found, err)
			}
			u.Trust.Value = v
			if err := store.UpdateUser(u); err != nil {
				t.Fatal(err)
			}
		}
		var ops []storedb.Op
		err := store.DB().Since(from, 0, func(b storedb.Batch) error {
			ops = append(ops, b.Ops...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	f.stateA = capture(3)
	f.stateB = capture(7)

	replicaStore := repo.OpenMemory()
	t.Cleanup(func() { replicaStore.Close() })
	replica, err := New(Config{Store: replicaStore, Clock: vclock.NewVirtual(vclock.Epoch), EmailPepper: "test-pepper", Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	err = store.DB().Since(0, 0, func(b storedb.Batch) error { return replicaStore.DB().ApplyBatch(b) })
	if err != nil {
		t.Fatal(err)
	}
	f.replica = replica
	return f
}

// flip installs a captured state in one commit: a single Update on the
// primary, a single applied batch on the replica.
func (f *snapshotFixture) flip(srv *Server, ops []storedb.Op) error {
	db := srv.Store().DB()
	if srv == f.replica {
		return db.ApplyBatch(storedb.Batch{Seq: db.Seq() + 1, Ops: ops})
	}
	return db.Update(func(tx *storedb.Tx) error {
		for _, op := range ops {
			cut := bytes.IndexByte(op.Key, 0)
			if err := tx.MustBucket(string(op.Key[:cut])).Put(op.Key[cut+1:], op.Val); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestLookupMissReadsOneSnapshot counts read transactions around lookups
// the report cache cannot answer.
func TestLookupMissReadsOneSnapshot(t *testing.T) {
	f := newSnapshotFixture(t)
	body := wire.EncodeBinaryLookup(&wire.LookupRequest{Software: wireMeta(1)})
	for _, tc := range []struct {
		name string
		srv  *Server
	}{{"primary", f.primary}, {"replica", f.replica}} {
		db := tc.srv.Store().DB()
		rf := &reportFixture{srv: tc.srv, handler: tc.srv.Handler()}

		views, writes := db.ViewCount(), db.WriteAttempts()
		rf.post(t, wire.PathLookup, wire.BinaryContentType, body)
		if got := db.ViewCount() - views; got != 1 {
			t.Errorf("%s: a miss opened %d read transactions, want 1", tc.name, got)
		}
		rf.post(t, wire.PathLookup, wire.BinaryContentType, body)
		if got := db.ViewCount() - views; got != 1 {
			t.Errorf("%s: a cache hit opened a read transaction", tc.name)
		}

		views = db.ViewCount()
		if _, err := tc.srv.buildLookupResponse(new(reportScratch), f.meta, nil, true); err != nil {
			t.Fatal(err)
		}
		if got := db.ViewCount() - views; got != 1 {
			t.Errorf("%s: a lean report opened %d read transactions, want 1", tc.name, got)
		}
		if got := db.WriteAttempts() - writes; got != 0 {
			t.Errorf("%s: lookups of a known program began %d write transactions", tc.name, got)
		}

		// First sight: still one snapshot; only the primary then writes.
		views, writes = db.ViewCount(), db.WriteAttempts()
		rep, err := tc.srv.Lookup(testMeta(200))
		if err != nil || rep.Known {
			t.Fatalf("%s: first sight = %+v, %v", tc.name, rep, err)
		}
		if got := db.ViewCount() - views; got != 1 {
			t.Errorf("%s: a first sight opened %d read transactions, want 1", tc.name, got)
		}
		wantWrites := uint64(1)
		if tc.srv == f.replica {
			wantWrites = 0
		}
		if got := db.WriteAttempts() - writes; got != wantWrites {
			t.Errorf("%s: a first sight began %d write transactions, want %d", tc.name, got, wantWrites)
		}
	}
}

// TestReportIsOneSnapshot runs lookups against a writer that flips the
// whole fixture between state A and state B, one commit per flip. A
// report assembled from more than one snapshot of the tree would sooner
// or later show a score from one state beside a vendor score or a trust
// factor from the other; every report observed must be wholly A or
// wholly B.
func TestReportIsOneSnapshot(t *testing.T) {
	f := newSnapshotFixture(t)
	for _, tc := range []struct {
		name string
		srv  *Server
	}{{"primary", f.primary}, {"replica", f.replica}} {
		const (
			readers    = 4
			minLookups = 500
			minFlips   = 200
		)
		var flips, sawA, sawB atomic.Int64
		deadline := time.Now().Add(30 * time.Second)
		done := make(chan struct{})
		var writer, wg sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ops := f.stateA
				if i%2 == 1 {
					ops = f.stateB
				}
				if err := f.flip(tc.srv, ops); err != nil {
					t.Errorf("%s: flip: %v", tc.name, err)
					return
				}
				flips.Add(1)
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Keep going until the run has teeth: enough lookups, enough
				// flips, and both states actually observed (on one CPU the
				// writer flips thousands of times per time slice and readers
				// only see the state it was preempted in).
				for n := 0; n < minLookups || flips.Load() < minFlips || sawA.Load() == 0 || sawB.Load() == 0; n++ {
					if time.Now().After(deadline) {
						t.Errorf("%s: after 30 s: %d flips, state A seen %d times, state B %d times",
							tc.name, flips.Load(), sawA.Load(), sawB.Load())
						return
					}
					resp, err := tc.srv.buildLookupResponse(new(reportScratch), f.meta, nil, false)
					if err != nil {
						t.Errorf("%s: lookup: %v", tc.name, err)
						return
					}
					v := resp.Score
					mixed := resp.VendorScore != v || len(resp.Comments) != snapshotAuthors
					for _, c := range resp.Comments {
						mixed = mixed || c.AuthorTrust != v
					}
					switch {
					case mixed || (v != 3 && v != 7):
						t.Errorf("%s: report mixes two states: score %v, vendor score %v, comments %+v",
							tc.name, resp.Score, resp.VendorScore, resp.Comments)
						return
					case v == 3:
						sawA.Add(1)
					default:
						sawB.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		close(done)
		writer.Wait()
	}
}
