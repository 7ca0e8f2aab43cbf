package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"softreputation/internal/storedb"
)

// forkReplica builds a replica that shares a prefix with the primary
// and then commits extra local writes the primary never saw — the state
// a replica is left in after following a deposed primary through a
// partition. It returns the replica and how many batches forked.
func forkReplica(t *testing.T, primary *storedb.DB, srvURL string, durable bool, extra int) (*Replica, *storedb.DB) {
	t.Helper()
	opts := storedb.Options{}
	if durable {
		opts.Dir = t.TempDir()
		opts.CompactEvery = -1
	}
	rdb, err := storedb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdb.Close() })
	rdb.SetReplicaMode(true)
	rep := &Replica{DB: rdb, Primary: srvURL, ID: "forked"}
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fork: writes acked only on the old side of the partition.
	for i := 0; i < extra; i++ {
		b := storedb.Batch{
			Seq: rdb.Seq() + 1,
			Ops: []storedb.Op{{Key: []byte(fmt.Sprintf("b\x00stale%d", i)), Val: []byte("old-primary")}},
		}
		if err := rdb.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return rep, rdb
}

func TestDivergenceRepairByTruncation(t *testing.T) {
	for _, durable := range []bool{true, false} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			primary, srv, _ := newPrimary(t, 64)
			for i := 0; i < 5; i++ {
				put(t, primary, "b", fmt.Sprintf("k%d", i), "v")
			}
			rep, rdb := forkReplica(t, primary, srv.URL, durable, 3)

			// The new epoch's history moves on without the forked writes.
			if _, err := primary.BumpEpoch(); err != nil {
				t.Fatal(err)
			}
			put(t, primary, "b", "after", "new-primary")

			if err := rep.Sync(context.Background()); err != nil {
				t.Fatalf("sync over fork: %v", err)
			}
			if rdb.Seq() != primary.Seq() || rdb.ChainDigest() != primary.ChainDigest() {
				t.Fatalf("replica (%d,%x) != primary (%d,%x)",
					rdb.Seq(), rdb.ChainDigest(), primary.Seq(), primary.ChainDigest())
			}
			if _, ok := get(t, rdb, "b", "stale0"); ok {
				t.Fatal("forked write survived repair")
			}
			if v, ok := get(t, rdb, "b", "after"); !ok || v != "new-primary" {
				t.Fatal("new-epoch write missing after repair")
			}

			st := rep.Stats()
			if st.Diverged == 0 {
				t.Fatal("divergence not counted")
			}
			if st.QuarantinedBatches != 3 {
				t.Fatalf("quarantined %d batches, want 3", st.QuarantinedBatches)
			}
			if durable && st.Truncations == 0 {
				t.Fatal("durable fork should repair by truncation")
			}
			if !durable && st.SnapshotBootstraps == 0 {
				t.Fatal("in-memory fork should repair by bootstrap")
			}
			// Nothing silently dropped: the journal holds the forked writes.
			entries := rep.journal().Entries()
			if len(entries) != 3 {
				t.Fatalf("journal holds %d entries, want 3", len(entries))
			}
			for _, e := range entries {
				if e.SupersededBy != primary.Epoch() {
					t.Fatalf("entry superseded-by %d, want %d", e.SupersededBy, primary.Epoch())
				}
			}
		})
	}
}

// The next two tests pin two ways a forked replica's displaced tail is
// dropped today instead of quarantined: the gap ROADMAP O4 carries as
// "displaced tails dropped, not quarantined". Each asserts the drop as it
// is; a fix makes it fail and should turn it into a quarantine check.

// TestGapBootstrapSkipsDivergenceCheck: a forked replica whose position
// has left the primary's retained batches gets 410 Gone and bootstraps
// from a snapshot with no divergence check, so its forked batches are
// neither detected nor quarantined.
func TestGapBootstrapSkipsDivergenceCheck(t *testing.T) {
	for _, durable := range []bool{true, false} {
		primary, srv, _ := newPrimary(t, 8)
		for i := 0; i < 5; i++ {
			put(t, primary, "b", fmt.Sprintf("k%d", i), "v")
		}
		rep, rdb := forkReplica(t, primary, srv.URL, durable, 3)
		if _, err := primary.BumpEpoch(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			put(t, primary, "b", fmt.Sprintf("new%d", i), "v")
		}
		if err := rep.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rdb.Seq() != primary.Seq() || rdb.ChainDigest() != primary.ChainDigest() {
			t.Fatalf("durable %v: replica (%d,%x) != primary (%d,%x)", durable, rdb.Seq(), rdb.ChainDigest(), primary.Seq(), primary.ChainDigest())
		}
		if _, ok := get(t, rdb, "b", "stale0"); ok {
			t.Fatalf("durable %v: forked write survived the bootstrap", durable)
		}
		if st := rep.Stats(); st.SnapshotBootstraps != 1 || st.Diverged != 0 || st.QuarantinedBatches != 0 || rep.journal().Len() != 0 {
			t.Fatalf("durable %v: %+v, journal %d; the gap pinned here is 1 bootstrap, 0 diverged, 0 quarantined", durable, st, rep.journal().Len())
		}
	}
}

// TestGapForkDeeperThanDigestProbes: a fork deeper than maxDigestProbes
// on both sides is not found, and resync quarantines only the last
// maxDigestProbes local batches before it bootstraps; the older forked
// batches are dropped.
func TestGapForkDeeperThanDigestProbes(t *testing.T) {
	const forked = 200
	for _, durable := range []bool{true, false} {
		primary, srv, _ := newPrimary(t, 1024)
		for i := 0; i < 5; i++ {
			put(t, primary, "b", fmt.Sprintf("k%d", i), "v")
		}
		rep, rdb := forkReplica(t, primary, srv.URL, durable, forked)
		if _, err := primary.BumpEpoch(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < forked; i++ {
			put(t, primary, "b", fmt.Sprintf("new%d", i), "v")
		}
		if err := rep.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rdb.Seq() != primary.Seq() || rdb.ChainDigest() != primary.ChainDigest() {
			t.Fatalf("durable %v: replica (%d,%x) != primary (%d,%x)", durable, rdb.Seq(), rdb.ChainDigest(), primary.Seq(), primary.ChainDigest())
		}
		if st := rep.Stats(); st.Diverged != 1 || st.QuarantinedBatches != maxDigestProbes || rep.journal().Len() != maxDigestProbes {
			t.Fatalf("durable %v: %+v, journal %d; the gap pinned here is %d of %d forked batches quarantined",
				durable, st, rep.journal().Len(), maxDigestProbes, forked)
		}
	}
}

func TestStalePrimaryRefused(t *testing.T) {
	primary, srv, _ := newPrimary(t, 64)
	put(t, primary, "b", "k", "v")

	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: srv.URL, ID: "r1"}
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The replica learns of a promotion the primary never saw.
	rep.observeEpoch(primary.Epoch() + 1)
	put(t, primary, "b", "k2", "v")

	err := rep.Sync(context.Background())
	if !errors.Is(err, ErrStalePrimary) {
		t.Fatalf("sync from deposed primary err = %v, want ErrStalePrimary", err)
	}
	if _, ok := get(t, rdb, "b", "k2"); ok {
		t.Fatal("replica applied a batch from a deposed primary")
	}
	if rep.Stats().StaleRejects == 0 {
		t.Fatal("stale reject not counted")
	}
}

func TestEpochPropagatesToReplica(t *testing.T) {
	primary, srv, _ := newPrimary(t, 64)
	put(t, primary, "b", "k", "v")
	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}

	rdb := newReplicaDB(t)
	rep := &Replica{DB: rdb, Primary: srv.URL, ID: "r1"}
	if err := rep.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rdb.Epoch() != 1 {
		t.Fatalf("replica store epoch = %d, want 1", rdb.Epoch())
	}
	if rep.epochFloor() != 1 {
		t.Fatalf("replica epoch floor = %d, want 1", rep.epochFloor())
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery-journal")
	j := &RecoveryJournal{Path: path}
	batches := []storedb.Batch{
		{Seq: 7, Ops: []storedb.Op{{Key: []byte("b\x00a"), Val: []byte("1")}}},
		{Seq: 8, Ops: []storedb.Op{{Key: []byte("b\x00b"), Delete: true}}},
	}
	if err := j.Quarantine(2, 3, batches); err != nil {
		t.Fatal(err)
	}
	if err := j.Quarantine(2, 3, nil); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d entries, want 2", len(got))
	}
	if got[0].AckedEpoch != 2 || got[0].SupersededBy != 3 || got[0].Batch.Seq != 7 {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if !got[1].Batch.Ops[0].Delete {
		t.Fatal("delete op lost in journal round trip")
	}

	if missing, err := ReadJournal(filepath.Join(t.TempDir(), "nope")); err != nil || missing != nil {
		t.Fatalf("missing journal = %v, %v", missing, err)
	}
}

// TestResyncQuarantinesBeforeTruncating: a repair whose journal cannot
// be written fails and leaves the forked tail in place, so the next
// round quarantines it again rather than finding it already dropped.
func TestResyncQuarantinesBeforeTruncating(t *testing.T) {
	primary, srv, _ := newPrimary(t, 64)
	for i := 0; i < 5; i++ {
		put(t, primary, "b", fmt.Sprintf("k%d", i), "v")
	}
	rep, rdb := forkReplica(t, primary, srv.URL, true, 3)
	rep.Journal = &RecoveryJournal{Path: t.TempDir()} // a directory: opening it for writing fails
	if _, err := primary.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	put(t, primary, "b", "after", "new-primary")
	forked := rdb.Seq()

	if err := rep.Sync(context.Background()); err == nil {
		t.Fatal("repair with an unwritable journal succeeded")
	}
	if rdb.Seq() != forked {
		t.Fatalf("replica at seq %d after a failed repair, want its forked tail's %d", rdb.Seq(), forked)
	}
	if _, ok := get(t, rdb, "b", "stale2"); !ok {
		t.Fatal("forked write dropped by a repair that could not journal it")
	}
	if st := rep.Stats(); st.Truncations != 0 || st.QuarantinedBatches != 0 {
		t.Fatalf("failed repair counted %d truncations, %d quarantined batches", st.Truncations, st.QuarantinedBatches)
	}
}

// TestJournalAppendsPastTornTail: an entry quarantined after a crash left
// a torn one behind is read back, the torn bytes cut first.
func TestJournalAppendsPastTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery-journal")
	j := &RecoveryJournal{Path: path}
	batch := func(seq uint64) []storedb.Batch {
		return []storedb.Batch{{Seq: seq, Ops: []storedb.Op{{Key: []byte("b\x00a"), Val: []byte("1")}}}}
	}
	if err := j.Quarantine(2, 3, batch(7)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 1, 2}); err != nil { // a header cut short by a crash
		t.Fatal(err)
	}
	f.Close()
	if err := j.Quarantine(2, 3, batch(8)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Batch.Seq != 7 || got[1].Batch.Seq != 8 {
		t.Fatalf("read back %d of 2 entries: %+v", len(got), got)
	}
}

// TestClaimedLengthAllocatesNothing: a /repl/wal body or a journal file
// whose first frame header claims 256 MiB, followed by five bytes, is a
// bad frame, and reading it allocates for the bytes that arrived, not
// for the claim.
func TestClaimedLengthAllocatesNothing(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, 256<<20)
	claim = append(binary.BigEndian.AppendUint32(claim, 0), 1, 2, 3, 4, 5)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	rep := &Replica{DB: newReplicaDB(t), ID: "claim", Primary: "http://primary",
		Client: &http.Client{Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
				Body: io.NopCloser(bytes.NewReader(claim))}, nil
		})}}
	var err error
	if n := allocated(func() { _, _, err = rep.pullOnce(context.Background()) }); n >= 1<<20 {
		t.Errorf("a pull of a frame claiming 256 MiB allocated %d bytes", n)
	}
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("pull: %v, want ErrBadFrame", err)
	}

	path := filepath.Join(t.TempDir(), "recovery-journal")
	if err := os.WriteFile(path, claim, 0o600); err != nil {
		t.Fatal(err)
	}
	var entries []JournalEntry
	if n := allocated(func() { entries, err = ReadJournal(path) }); n >= 1<<20 {
		t.Errorf("reading a journal frame claiming 256 MiB allocated %d bytes", n)
	}
	if err != nil || len(entries) != 0 {
		t.Errorf("journal of one torn frame read as %d entries, %v", len(entries), err)
	}
	if _, _, err := scanJournal(bytes.NewReader(claim)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("journal scan ended with %v, want ErrBadFrame", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestNextPollDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	poll := 100 * time.Millisecond
	if d := nextPollDelay(poll, 0, rng); d != poll {
		t.Fatalf("healthy delay = %v, want %v", d, poll)
	}
	prevMax := poll
	for failures := 1; failures <= 8; failures++ {
		want := poll << min(failures, 5)
		if want > maxPollBackoff {
			want = maxPollBackoff
		}
		for i := 0; i < 50; i++ {
			d := nextPollDelay(poll, failures, rng)
			if d < want/2 || d > want {
				t.Fatalf("failures=%d: delay %v outside [%v, %v]", failures, d, want/2, want)
			}
		}
		if want < prevMax {
			t.Fatalf("backoff shrank: %v after %v", want, prevMax)
		}
		prevMax = want
	}
	// Cap respected even for huge failure counts.
	if d := nextPollDelay(time.Second, 50, rng); d > maxPollBackoff {
		t.Fatalf("delay %v above cap", d)
	}
}
