package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

// newDiskServer builds a server over a store that logs to a temporary
// directory, for tests that count batches and fsyncs or inject faults
// into the log.
func newDiskServer(t *testing.T, opts storedb.Options, mutate func(*Config)) (*Server, *repo.Store) {
	t.Helper()
	opts.Dir = t.TempDir()
	store, err := repo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg := Config{Store: store, Clock: vclock.NewVirtual(vclock.Epoch), EmailPepper: "test-pepper"}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, store
}

// TestModeratedCommentNeverVisible pins the moderation race: under
// ModerateComments no lookup may ever show a comment nobody approved,
// however it interleaves with the vote that carries it. Every log write
// is stalled, so that a vote stored in two steps (the comment, then its
// hidden flag) stands between them long enough for the lookups of a
// second goroutine to land there and cache what they saw.
func TestModeratedCommentNeverVisible(t *testing.T) {
	s, _ := newDiskServer(t, storedb.Options{}, func(c *Config) { c.ModerateComments = true })
	author := registerAndLogin(t, s, "author")
	meta := testMeta(1)
	if _, err := s.Lookup(meta); err != nil { // first sight: later lookups only read
		t.Fatal(err)
	}

	plan := storedb.NewFaultPlan(&storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", Delay: 40 * time.Millisecond})
	plan.Install()
	defer storedb.UninstallFaults()

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep, err := s.Lookup(meta)
			if err != nil {
				t.Errorf("lookup during the vote: %v", err)
				return
			}
			if len(rep.Comments) != 0 {
				t.Errorf("lookup during the vote shows the unmoderated comment: %+v", rep.Comments)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	cid, err := s.Vote(author, meta, 4, 0, "this needs a moderator's eyes")
	close(stop)
	poller.Wait()
	if err != nil || cid == 0 {
		t.Fatalf("vote: %d, %v", cid, err)
	}

	rep, err := s.Lookup(meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Comments) != 0 {
		t.Fatalf("lookup after the vote shows the unmoderated comment: %+v", rep.Comments)
	}
	if pending, err := s.PendingComments(); err != nil || len(pending) != 1 || pending[0].ID != cid {
		t.Fatalf("pending = %+v, %v", pending, err)
	}
}

// TestVoteIsOneBatch pins that a vote is one transaction whatever it
// carries: one WAL batch and, on a syncing store, one fsync, with or
// without a comment, with or without moderation, on a program's first
// sight or a later one.
func TestVoteIsOneBatch(t *testing.T) {
	for _, moderate := range []bool{false, true} {
		s, store := newDiskServer(t, storedb.Options{SyncWrites: true}, func(c *Config) { c.ModerateComments = moderate })
		session := registerAndLogin(t, s, "voter")
		seed := byte(0)
		for _, comment := range []string{"", "a comment"} {
			for _, known := range []bool{false, true} {
				seed++
				meta := testMeta(seed)
				if known {
					if _, err := s.Lookup(meta); err != nil {
						t.Fatal(err)
					}
				}
				db := store.DB()
				batches, fsyncs := db.Seq(), db.Health().Fsyncs
				if _, err := s.Vote(session, meta, 6, 0, comment); err != nil {
					t.Fatal(err)
				}
				batches, fsyncs = db.Seq()-batches, db.Health().Fsyncs-fsyncs
				if batches != 1 || fsyncs != 1 {
					t.Errorf("moderation %v, comment %q, known %v: %d batches, %d fsyncs, want 1 and 1",
						moderate, comment, known, batches, fsyncs)
				}
			}
		}
	}
}

// TestRefusedVoteKeepsBudget pins that the §3.2 daily budget counts
// votes cast, not votes attempted: whatever the store refuses leaves
// the user's budget as it was.
func TestRefusedVoteKeepsBudget(t *testing.T) {
	cases := []struct {
		name   string
		refuse func(t *testing.T, s *Server, store *repo.Store, session string) error
		want   error
	}{
		{"duplicate", func(_ *testing.T, s *Server, _ *repo.Store, session string) error {
			_, err := s.Vote(session, testMeta(1), 5, 0, "")
			return err
		}, repo.ErrAlreadyRated},
		{"bad score", func(_ *testing.T, s *Server, _ *repo.Store, session string) error {
			_, err := s.Vote(session, testMeta(7), core.ScoreMax+1, 0, "")
			return err
		}, core.ErrScoreRange},
		{"storage failure", func(t *testing.T, s *Server, store *repo.Store, session string) error {
			plan := storedb.NewFaultPlan(&storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO})
			plan.Install()
			_, err := s.Vote(session, testMeta(7), 5, 0, "")
			storedb.UninstallFaults()
			if rerr := store.DB().Reopen(); rerr != nil {
				t.Fatalf("reopen after the injected failure: %v", rerr)
			}
			return err
		}, storedb.ErrStorageFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, store := newDiskServer(t, storedb.Options{}, func(c *Config) { c.MaxVotesPerUserPerDay = 2 })
			session := registerAndLogin(t, s, "voter")
			if _, err := s.Vote(session, testMeta(1), 5, 0, ""); err != nil {
				t.Fatal(err)
			}
			if err := tc.refuse(t, s, store, session); !errors.Is(err, tc.want) {
				t.Fatalf("refused vote err = %v, want %v", err, tc.want)
			}
			if _, err := s.Vote(session, testMeta(2), 5, 0, ""); err != nil {
				t.Fatalf("second vote of a budget of two, after a refused one: %v", err)
			}
			if _, err := s.Vote(session, testMeta(3), 5, 0, ""); !errors.Is(err, ErrVoteBudget) {
				t.Fatalf("third vote err = %v, want the budget's refusal", err)
			}
		})
	}
}
