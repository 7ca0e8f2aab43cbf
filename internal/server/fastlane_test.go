package server

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Tests for the read fast lane: write-free steady-state lookups, the
// report cache's invalidation rules, and the incremental aggregation
// engine's equivalence with the full rescan.

// newHTTPFixtureWith is newHTTPFixture with a config mutator.
func newHTTPFixtureWith(t *testing.T, mutate func(*Config)) *httpFixture {
	t.Helper()
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	cfg := Config{
		Store:       store,
		Clock:       vclock.NewVirtual(vclock.Epoch),
		EmailPepper: "pepper",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &httpFixture{t: t, srv: s, ts: ts, client: ts.Client()}
}

func (f *httpFixture) lookup(meta wire.SoftwareInfo, feeds ...string) wire.LookupResponse {
	f.t.Helper()
	var resp wire.LookupResponse
	req := wire.LookupRequest{Software: meta, Feeds: feeds}
	if err := f.post(wire.PathLookup, req, &resp); err != nil {
		f.t.Fatalf("lookup: %v", err)
	}
	return resp
}

// TestLookupSteadyStateWriteFree is the tentpole property: once an
// executable is known, lookups never open a write transaction — the
// commit sequence and the Update count both stay put, across cache
// hits, cache misses (fresh feed combinations), and the direct
// (non-HTTP) operation path.
func TestLookupSteadyStateWriteFree(t *testing.T) {
	f := newHTTPFixture(t)
	meta := wireMeta(9)

	// First sight registers the executable: exactly one write.
	if resp := f.lookup(meta); resp.Known {
		t.Fatal("first lookup reported the executable as known")
	}
	db := f.srv.Store().DB()
	seq := db.Seq()

	domainMeta := testMeta(9)
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0: // repeated key: cache hit after the first fill
			if resp := f.lookup(meta); !resp.Known {
				t.Fatal("known executable reported unknown")
			}
		case 1: // fresh feed set: cache miss, full report rebuild
			if resp := f.lookup(meta, fmt.Sprintf("feed-%d", i)); !resp.Known {
				t.Fatal("known executable reported unknown")
			}
		case 2: // direct operation path, no HTTP or cache in the loop
			rep, err := f.srv.Lookup(domainMeta)
			if err != nil || !rep.Known {
				t.Fatalf("direct lookup = %+v, %v", rep, err)
			}
		}
	}

	if got := db.Seq(); got != seq {
		t.Fatalf("lookups advanced the commit sequence: %d -> %d", seq, got)
	}
	st := f.srv.ReportCacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits on the repeated key, stats = %+v", st)
	}
}

// TestVoteAndRemarkVisibleInNextLookup drives the cache through its
// write-side invalidations: a vote's comment and a remark's counter
// change must both show up in the immediately following lookup.
func TestVoteAndRemarkVisibleInNextLookup(t *testing.T) {
	f := newHTTPFixture(t)
	alice := f.signupOverHTTP("alice")
	bob := f.signupOverHTTP("bob")
	meta := wireMeta(3)

	// Prime the cache with a comment-free report.
	f.lookup(meta)
	if resp := f.lookup(meta); len(resp.Comments) != 0 {
		t.Fatalf("unexpected comments: %+v", resp.Comments)
	}

	var voted wire.VoteResponse
	err := f.post(wire.PathVote, wire.VoteRequest{
		Session: alice, Software: meta, Score: 8, Comment: "does what it says",
	}, &voted)
	if err != nil {
		t.Fatal(err)
	}
	resp := f.lookup(meta)
	if len(resp.Comments) != 1 || resp.Comments[0].Text != "does what it says" {
		t.Fatalf("vote comment not visible in next lookup: %+v", resp.Comments)
	}
	if resp.Comments[0].Positive != 0 {
		t.Fatalf("fresh comment has remarks: %+v", resp.Comments[0])
	}

	err = f.post(wire.PathRemark, wire.RemarkRequest{
		Session: bob, CommentID: voted.CommentID, Positive: true,
	}, &wire.RemarkResponse{})
	if err != nil {
		t.Fatal(err)
	}
	resp = f.lookup(meta)
	if len(resp.Comments) != 1 || resp.Comments[0].Positive != 1 {
		t.Fatalf("remark not visible in next lookup: %+v", resp.Comments)
	}
}

// TestModerationInvalidatesCachedReport checks that approving a held
// comment evicts the cached comment-free report.
func TestModerationInvalidatesCachedReport(t *testing.T) {
	f := newHTTPFixtureWith(t, func(cfg *Config) { cfg.ModerateComments = true })
	alice := f.signupOverHTTP("alice")
	meta := wireMeta(5)

	var voted wire.VoteResponse
	err := f.post(wire.PathVote, wire.VoteRequest{
		Session: alice, Software: meta, Score: 4, Comment: "held for review",
	}, &voted)
	if err != nil {
		t.Fatal(err)
	}
	// Two lookups: the second is served from cache, without the comment.
	f.lookup(meta)
	if resp := f.lookup(meta); len(resp.Comments) != 0 {
		t.Fatalf("held comment visible before approval: %+v", resp.Comments)
	}
	if err := f.srv.ApproveComment(voted.CommentID); err != nil {
		t.Fatal(err)
	}
	if resp := f.lookup(meta); len(resp.Comments) != 1 || resp.Comments[0].Text != "held for review" {
		t.Fatalf("approved comment not visible: %+v", resp.Comments)
	}
}

// TestFeedPublishInvalidatesCachedReport checks that publishing expert
// advice evicts cached reports for the advised executable.
func TestFeedPublishInvalidatesCachedReport(t *testing.T) {
	f := newHTTPFixture(t)
	meta := wireMeta(6)

	f.lookup(meta, "cert.example")
	if resp := f.lookup(meta, "cert.example"); len(resp.Advice) != 0 {
		t.Fatalf("advice before publish: %+v", resp.Advice)
	}
	f.srv.Feed("cert.example").Publish(ExpertAdvice{
		Software:  testMeta(6).ID,
		Score:     2,
		Behaviors: core.BehaviorTracksUsage,
		Note:      "phones home",
	})
	resp := f.lookup(meta, "cert.example")
	if len(resp.Advice) != 1 || resp.Advice[0].Note != "phones home" {
		t.Fatalf("published advice not visible: %+v", resp.Advice)
	}
}

// TestReplicaApplyBatchInvalidatesReports replicates a primary into a
// replica serving cached lookups and checks that applied batches evict
// exactly the stale reports: state changes shipped over the WAL stream
// appear in the replica's next lookup.
func TestReplicaApplyBatchInvalidatesReports(t *testing.T) {
	primary := newHTTPFixture(t)

	replicaStore := repo.OpenMemory()
	t.Cleanup(func() { replicaStore.Close() })
	rsrv, err := New(Config{
		Store:       replicaStore,
		Clock:       vclock.NewVirtual(vclock.Epoch),
		EmailPepper: "pepper",
		Replica:     true,
		PrimaryURL:  primary.ts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(rts.Close)
	replica := &httpFixture{t: t, srv: rsrv, ts: rts, client: rts.Client()}

	ship := func() {
		t.Helper()
		err := primary.srv.Store().DB().Since(replicaStore.DB().Seq(), 0, func(b storedb.Batch) error {
			return replicaStore.DB().ApplyBatch(b)
		})
		if err != nil {
			t.Fatalf("ship: %v", err)
		}
	}

	alice := primary.signupOverHTTP("alice")
	meta := wireMeta(7)
	err = primary.post(wire.PathVote, wire.VoteRequest{
		Session: alice, Software: meta, Score: 9, Comment: "useful tool",
	}, &wire.VoteResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.srv.RunIncrementalAggregation(); err != nil {
		t.Fatal(err)
	}
	ship()

	resp := replica.lookup(meta)
	if !resp.Known || resp.Votes != 1 || len(resp.Comments) != 1 {
		t.Fatalf("replica report after first ship = %+v", resp)
	}
	replica.lookup(meta) // now served from the replica's cache
	if st := rsrv.ReportCacheStats(); st.Hits == 0 {
		t.Fatalf("replica cache never hit: %+v", st)
	}

	// More state lands on the primary; shipping it must evict the
	// replica's cached report.
	bob := primary.signupOverHTTP("bob")
	err = primary.post(wire.PathVote, wire.VoteRequest{
		Session: bob, Software: meta, Score: 2, Comment: "spyware",
	}, &wire.VoteResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.srv.RunIncrementalAggregation(); err != nil {
		t.Fatal(err)
	}
	ship()

	resp = replica.lookup(meta)
	if resp.Votes != 2 || len(resp.Comments) != 2 {
		t.Fatalf("replica served a stale report after ApplyBatch: %+v", resp)
	}
}

// goldenEnv drives one server through a scripted workload so two
// servers — one aggregating with the full rescan, one incrementally —
// can be compared byte-for-byte.
type goldenEnv struct {
	t     *testing.T
	s     *Server
	full  bool // aggregate with the full rescan, the reference
	clock *vclock.Virtual
	sess  map[string]string
	cids  map[string]uint64
}

func newGoldenEnv(t *testing.T, full bool) *goldenEnv {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	s, err := New(Config{
		Store:       store,
		Clock:       clock,
		EmailPepper: "golden",
	})
	if err != nil {
		t.Fatal(err)
	}
	return &goldenEnv{t: t, s: s, full: full, clock: clock,
		sess: make(map[string]string), cids: make(map[string]uint64)}
}

func (e *goldenEnv) signup(name string) {
	e.sess[name] = registerAndLogin(e.t, e.s, name)
}

func goldenMeta(seed byte, vendor string) core.SoftwareMeta {
	m := testMeta(seed)
	m.Vendor = vendor
	return m
}

func (e *goldenEnv) vote(label, user string, meta core.SoftwareMeta, score int, b core.Behavior, comment string) {
	e.t.Helper()
	cid, err := e.s.Vote(e.sess[user], meta, score, b, comment)
	if err != nil {
		e.t.Fatalf("vote %s by %s: %v", label, user, err)
	}
	e.cids[label] = cid
}

func (e *goldenEnv) remark(user, label string, positive bool) {
	e.t.Helper()
	if err := e.s.Remark(e.sess[user], e.cids[label], positive); err != nil {
		e.t.Fatalf("remark on %s by %s: %v", label, user, err)
	}
}

func (e *goldenEnv) aggregate() {
	e.t.Helper()
	run := e.s.RunIncrementalAggregation
	if e.full {
		run = e.s.RunAggregation
	}
	if err := run(); err != nil {
		e.t.Fatalf("aggregate: %v", err)
	}
}

// records snapshots the published score and vendor-score buckets as raw
// bytes, exactly as stored.
func (e *goldenEnv) records() (map[string][]byte, map[string][]byte) {
	e.t.Helper()
	scores := make(map[string][]byte)
	err := e.s.Store().ForEachScoreRecord(func(id core.SoftwareID, raw []byte) bool {
		scores[string(id[:])] = append([]byte(nil), raw...)
		return true
	})
	if err != nil {
		e.t.Fatal(err)
	}
	vendors := make(map[string][]byte)
	err = e.s.Store().ForEachVendorScoreRecord(func(vendor string, raw []byte) bool {
		vendors[vendor] = append([]byte(nil), raw...)
		return true
	})
	if err != nil {
		e.t.Fatal(err)
	}
	return scores, vendors
}

// TestIncrementalAggregationMatchesFullRescan is the golden
// equivalence test: the same multi-round workload — votes, remarks
// shifting trust factors, bootstrap priors, new software, idle rounds —
// must leave byte-identical score and vendor-score buckets whether each
// round aggregates incrementally or rescans everything.
func TestIncrementalAggregationMatchesFullRescan(t *testing.T) {
	full := newGoldenEnv(t, true)
	incr := newGoldenEnv(t, false)
	envs := []*goldenEnv{full, incr}

	m1 := goldenMeta(1, "Acme")
	m2 := goldenMeta(2, "Acme")
	m3 := goldenMeta(3, "Globex")
	m4 := goldenMeta(4, "") // vendorless

	compare := func(round string) {
		t.Helper()
		fs, fv := full.records()
		is, iv := incr.records()
		if !reflect.DeepEqual(fs, is) {
			t.Fatalf("%s: score buckets diverged\nfull: %d records\nincr: %d records\nfull=%v\nincr=%v",
				round, len(fs), len(is), fs, is)
		}
		if !reflect.DeepEqual(fv, iv) {
			t.Fatalf("%s: vendor buckets diverged\nfull=%v\nincr=%v", round, fv, iv)
		}
	}

	// Round 0: users, a bootstrap prior, first votes.
	for _, e := range envs {
		for _, u := range []string{"u0", "u1", "u2", "u3"} {
			e.signup(u)
		}
		if err := e.s.Bootstrap([]BootstrapEntry{{
			Meta: m2, Score: 7.5, Votes: 40, Behaviors: core.BehaviorDisplaysAds,
		}}); err != nil {
			t.Fatal(err)
		}
		e.vote("c0", "u0", m1, 8, 0, "solid")
		e.vote("c1", "u1", m1, 6, core.BehaviorStartupRegistration, "meh")
		e.vote("c2", "u2", m2, 2, core.BehaviorTracksUsage|core.BehaviorDisplaysAds, "adware")
		e.aggregate()
	}
	compare("round 0")

	// Round 1: remarks move trust factors, one more vote.
	for _, e := range envs {
		e.clock.Advance(24 * time.Hour)
		e.remark("u3", "c0", true)
		e.remark("u2", "c0", true)
		e.remark("u3", "c2", false)
		e.vote("c3", "u3", m1, 9, 0, "agree")
		e.aggregate()
	}
	compare("round 1")

	// Round 2: idle — the incremental run must be a no-op that still
	// matches the rescan.
	for _, e := range envs {
		e.clock.Advance(24 * time.Hour)
		e.aggregate()
	}
	compare("round 2")

	// Round 3: new software (one vendorless), more trust movement.
	for _, e := range envs {
		e.clock.Advance(24 * time.Hour)
		e.vote("c4", "u1", m3, 5, core.BehaviorBundledSoftware, "bundles junk")
		e.vote("c5", "u0", m4, 10, 0, "clean")
		e.remark("u1", "c0", true)
		e.remark("u0", "c2", false)
		e.aggregate()
	}
	compare("round 3")
}
