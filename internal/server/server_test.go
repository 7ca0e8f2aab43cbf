package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/repo"
	"softreputation/internal/vclock"
)

// newTestServer builds a server over an in-memory store and a virtual
// clock, with CAPTCHA and puzzles off unless the config mutator turns
// them on.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *vclock.Virtual) {
	t.Helper()
	clock := vclock.NewVirtual(vclock.Epoch)
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	cfg := Config{Store: store, Clock: clock, EmailPepper: "test-pepper"}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

// registerAndLogin walks one user through the full signup flow.
func registerAndLogin(t *testing.T, s *Server, username string) string {
	t.Helper()
	email := username + "@example.com"
	if err := s.Register(RegisterParams{Username: username, Password: "pw-" + username, Email: email}); err != nil {
		t.Fatalf("Register(%s): %v", username, err)
	}
	mail, ok := s.Mailer().(*MemoryMailer).Read(email)
	if !ok {
		t.Fatalf("no activation mail for %s", email)
	}
	if _, err := s.Activate(mail.Token); err != nil {
		t.Fatalf("Activate(%s): %v", username, err)
	}
	session, err := s.Login(username, "pw-"+username)
	if err != nil {
		t.Fatalf("Login(%s): %v", username, err)
	}
	return session
}

func testMeta(seed byte) core.SoftwareMeta {
	content := []byte{seed, 0xAB, seed}
	return core.SoftwareMeta{
		ID:       core.ComputeSoftwareID(content),
		FileName: fmt.Sprintf("tool-%d.exe", seed),
		FileSize: 3,
		Vendor:   "Acme",
		Version:  "2.0",
	}
}

func TestRegistrationFlow(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if err := s.Register(RegisterParams{Username: "alice", Password: "pw", Email: "alice@example.com"}); err != nil {
		t.Fatal(err)
	}
	// Login before activation fails.
	if _, err := s.Login("alice", "pw"); !errors.Is(err, ErrNotActivated) {
		t.Fatalf("pre-activation login err = %v", err)
	}
	mail, _ := s.Mailer().(*MemoryMailer).Read("alice@example.com")
	username, err := s.Activate(mail.Token)
	if err != nil || username != "alice" {
		t.Fatalf("Activate = %q, %v", username, err)
	}
	session, err := s.Login("alice", "pw")
	if err != nil || session == "" {
		t.Fatalf("Login = %q, %v", session, err)
	}
	if name, err := s.SessionUser(session); err != nil || name != "alice" {
		t.Fatalf("SessionUser = %q, %v", name, err)
	}
	s.Logout(session)
	if _, err := s.SessionUser(session); !errors.Is(err, ErrBadSession) {
		t.Fatal("logout did not end the session")
	}
}

func TestRegisterValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if err := s.Register(RegisterParams{Username: "", Password: "pw", Email: "a@b.com"}); err == nil {
		t.Fatal("empty username accepted")
	}
	if err := s.Register(RegisterParams{Username: "x", Password: "pw", Email: "not-an-email"}); !errors.Is(err, identity.ErrBadEmail) {
		t.Fatalf("bad email err = %v", err)
	}
}

func TestOneAccountPerEmail(t *testing.T) {
	s, _ := newTestServer(t, nil)
	base := RegisterParams{Username: "alice", Password: "pw", Email: "shared@example.com"}
	if err := s.Register(base); err != nil {
		t.Fatal(err)
	}
	dup := base
	dup.Username = "alice2"
	if err := s.Register(dup); !errors.Is(err, repo.ErrEmailTaken) {
		t.Fatalf("dup email err = %v", err)
	}
	// Case variants of the address count as the same address.
	dup.Username = "alice3"
	dup.Email = "SHARED@Example.com"
	if err := s.Register(dup); !errors.Is(err, repo.ErrEmailTaken) {
		t.Fatalf("case-variant email err = %v", err)
	}
}

func TestCaptchaGateEnforced(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.RequireCaptcha = true })
	// No solution: rejected.
	err := s.Register(RegisterParams{Username: "bot", Password: "pw", Email: "b@x.com"})
	if !errors.Is(err, ErrCaptchaRequired) {
		t.Fatalf("missing captcha err = %v", err)
	}
	// Proper flow: challenge, solve, register.
	ch, err := s.IssueChallenge()
	if err != nil {
		t.Fatal(err)
	}
	var meter identity.CostMeter
	sol := s.CaptchaGate().Solve(ch.Captcha, &meter)
	err = s.Register(RegisterParams{
		Username: "human", Password: "pw", Email: "h@x.com",
		CaptchaNonce: ch.Captcha.Nonce, CaptchaSolution: sol,
	})
	if err != nil {
		t.Fatalf("register with captcha: %v", err)
	}
	if meter.Spent() != identity.HumanCostPerSolve {
		t.Fatalf("captcha cost = %v", meter.Spent())
	}
}

func TestPuzzleGateEnforced(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.PuzzleDifficulty = 8 })
	err := s.Register(RegisterParams{Username: "bot", Password: "pw", Email: "b@x.com"})
	if !errors.Is(err, ErrPuzzleRequired) {
		t.Fatalf("missing puzzle err = %v", err)
	}
	ch, _ := s.IssueChallenge()
	if ch.Puzzle.Difficulty != 8 {
		t.Fatalf("puzzle difficulty = %d", ch.Puzzle.Difficulty)
	}
	sol, _ := ch.Puzzle.Solve()
	err = s.Register(RegisterParams{
		Username: "worker", Password: "pw", Email: "w@x.com",
		PuzzleNonce: ch.Puzzle.Nonce, PuzzleSolution: sol,
	})
	if err != nil {
		t.Fatalf("register with puzzle: %v", err)
	}
	// Nonce is single-use: replaying it fails even with a valid solution.
	err = s.Register(RegisterParams{
		Username: "replayer", Password: "pw", Email: "r@x.com",
		PuzzleNonce: ch.Puzzle.Nonce, PuzzleSolution: sol,
	})
	if !errors.Is(err, ErrPuzzleRequired) {
		t.Fatalf("puzzle replay err = %v", err)
	}
}

func TestLoginFailures(t *testing.T) {
	s, _ := newTestServer(t, nil)
	registerAndLogin(t, s, "alice")
	if _, err := s.Login("alice", "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("wrong password err = %v", err)
	}
	if _, err := s.Login("ghost", "pw"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("unknown user err = %v", err)
	}
}

func TestLookupRegistersSoftware(t *testing.T) {
	s, _ := newTestServer(t, nil)
	meta := testMeta(1)
	rep, err := s.Lookup(meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Known {
		t.Fatal("first lookup must report unknown")
	}
	if rep.Score.Votes != 0 || rep.Score.Score != 0 {
		t.Fatalf("unrated score = %+v", rep.Score)
	}
	rep2, _ := s.Lookup(meta)
	if !rep2.Known {
		t.Fatal("second lookup must report known")
	}
	// The software record now exists with the provided metadata.
	sw, found, _ := s.Store().GetSoftware(meta.ID)
	if !found || sw.Meta.FileName != meta.FileName {
		t.Fatalf("software record = %+v, %v", sw, found)
	}
}

func TestVoteAndAggregate(t *testing.T) {
	s, clock := newTestServer(t, nil)
	meta := testMeta(1)
	scores := []int{8, 6, 7}
	for i, score := range scores {
		session := registerAndLogin(t, s, fmt.Sprintf("user%d", i))
		if _, err := s.Vote(session, meta, score, core.BehaviorDisplaysAds, "comment"); err != nil {
			t.Fatal(err)
		}
	}
	// Scores are not published until the aggregation runs.
	rep, _ := s.Lookup(meta)
	if rep.Score.Votes != 0 {
		t.Fatal("votes published before aggregation")
	}

	if err := s.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Lookup(meta)
	if rep.Score.Votes != 3 {
		t.Fatalf("votes = %d", rep.Score.Votes)
	}
	if rep.Score.Score != 7 { // all trust factors equal => plain mean
		t.Fatalf("score = %v, want 7", rep.Score.Score)
	}
	if !rep.Score.Behaviors.Has(core.BehaviorDisplaysAds) {
		t.Fatal("behaviour consensus missing")
	}
	if rep.Vendor.Score != 7 || rep.Vendor.SoftwareCount != 1 {
		t.Fatalf("vendor score = %+v", rep.Vendor)
	}
	if len(rep.Comments) != 3 {
		t.Fatalf("comments = %d", len(rep.Comments))
	}
	_ = clock
}

func TestOneVotePerUser(t *testing.T) {
	s, _ := newTestServer(t, nil)
	session := registerAndLogin(t, s, "alice")
	meta := testMeta(1)
	if _, err := s.Vote(session, meta, 5, 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vote(session, meta, 10, 0, ""); !errors.Is(err, repo.ErrAlreadyRated) {
		t.Fatalf("second vote err = %v", err)
	}
}

func TestVoteRequiresSession(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if _, err := s.Vote("bogus", testMeta(1), 5, 0, ""); !errors.Is(err, ErrBadSession) {
		t.Fatalf("bogus session err = %v", err)
	}
}

func TestVoteDailyBudget(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.MaxVotesPerUserPerDay = 2 })
	session := registerAndLogin(t, s, "flooder")
	for i := 0; i < 2; i++ {
		if _, err := s.Vote(session, testMeta(byte(i)), 5, 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Vote(session, testMeta(9), 5, 0, ""); !errors.Is(err, ErrVoteBudget) {
		t.Fatalf("over-budget vote err = %v", err)
	}
	// The budget resets the next day.
	clock.Advance(vclock.Day)
	if _, err := s.Vote(session, testMeta(9), 5, 0, ""); err != nil {
		t.Fatalf("next-day vote err = %v", err)
	}
}

func TestRemarksDriveTrust(t *testing.T) {
	s, _ := newTestServer(t, nil)
	authorSession := registerAndLogin(t, s, "author")
	meta := testMeta(1)
	cid, err := s.Vote(authorSession, meta, 4, 0, "detailed, helpful review")
	if err != nil || cid == 0 {
		t.Fatalf("vote with comment: %d, %v", cid, err)
	}

	before, _ := s.UserTrust("author")
	for i := 0; i < 3; i++ {
		reader := registerAndLogin(t, s, fmt.Sprintf("reader%d", i))
		if err := s.Remark(reader, cid, true); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := s.UserTrust("author")
	if after <= before {
		t.Fatalf("trust did not grow: %v -> %v", before, after)
	}
	if after != before+3*core.RemarkPositiveDelta {
		t.Fatalf("trust = %v, want %v", after, before+3)
	}
	// Negative remarks shrink it.
	critic := registerAndLogin(t, s, "critic")
	if err := s.Remark(critic, cid, false); err != nil {
		t.Fatal(err)
	}
	final, _ := s.UserTrust("author")
	if final != after+core.RemarkNegativeDelta {
		t.Fatalf("trust after negative remark = %v", final)
	}
}

func TestAggregationUsesTrustWeights(t *testing.T) {
	s, clock := newTestServer(t, nil)
	meta := testMeta(1)

	// Build an expert: weeks of positive remarks raise their trust.
	expertSession := registerAndLogin(t, s, "expert")
	warmup := testMeta(42)
	cid, _ := s.Vote(expertSession, warmup, 8, 0, "thorough analysis")
	raters := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		raters = append(raters, fmt.Sprintf("fan%d", i))
		registerAndLogin(t, s, raters[i])
	}
	for week := 0; week < 4; week++ {
		for i := 0; i < 3; i++ {
			fan := raters[week*3+i]
			sess, _ := s.Login(fan, "pw-"+fan)
			if err := s.Remark(sess, cid, true); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(vclock.Week)
	}
	trust, _ := s.UserTrust("expert")
	if trust < 10 {
		t.Fatalf("expert trust = %v, want >= 10", trust)
	}

	// Expert votes 9; three novices vote 2.
	if _, err := s.Vote(expertSession, meta, 9, 0, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sess := registerAndLogin(t, s, fmt.Sprintf("novice%d", i))
		if _, err := s.Vote(sess, meta, 2, 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	rep, _ := s.Lookup(meta)
	unweighted := (9.0 + 2 + 2 + 2) / 4
	if rep.Score.Score <= unweighted {
		t.Fatalf("weighted score %v not above unweighted %v", rep.Score.Score, unweighted)
	}
}

func TestMaybeAggregateEvery24h(t *testing.T) {
	s, clock := newTestServer(t, nil)
	ran, err := s.MaybeAggregate()
	if err != nil || !ran {
		t.Fatalf("first MaybeAggregate: %v, %v", ran, err)
	}
	ran, _ = s.MaybeAggregate()
	if ran {
		t.Fatal("second run within 24h")
	}
	clock.Advance(23 * time.Hour)
	if ran, _ := s.MaybeAggregate(); ran {
		t.Fatal("ran at 23h")
	}
	clock.Advance(time.Hour)
	if ran, _ := s.MaybeAggregate(); !ran {
		t.Fatal("did not run at 24h")
	}
}

func TestAggregationScheduleSurvivesRestart(t *testing.T) {
	store := repo.OpenMemory()
	defer store.Close()
	clock := vclock.NewVirtual(vclock.Epoch)
	s1, err := New(Config{Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.MaybeAggregate(); err != nil {
		t.Fatal(err)
	}
	// A second server over the same store sees the schedule.
	s2, err := New(Config{Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if ran, _ := s2.MaybeAggregate(); ran {
		t.Fatal("restarted server re-ran within the same 24h period")
	}
}

func TestBootstrap(t *testing.T) {
	s, _ := newTestServer(t, nil)
	entries := []BootstrapEntry{
		{Meta: testMeta(1), Score: 8.5, Votes: 120, Behaviors: 0},
		{Meta: testMeta(2), Score: 2.1, Votes: 80, Behaviors: core.BehaviorDisplaysAds | core.BehaviorBundledSoftware},
	}
	if err := s.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	rep, _ := s.Lookup(entries[1].Meta)
	if !rep.Known || rep.Score.Score != 2.1 || rep.Score.Votes != 80 {
		t.Fatalf("bootstrapped report = %+v", rep.Score)
	}
	if !rep.Score.Behaviors.Has(core.BehaviorDisplaysAds) {
		t.Fatal("bootstrapped behaviours lost")
	}
	// Vendor score derives from the seeded entries.
	vs, known, _ := s.VendorReport("Acme")
	if !known || vs.SoftwareCount != 2 {
		t.Fatalf("vendor report = %+v, %v", vs, known)
	}
	// Aggregation with no real votes must keep seeded scores.
	if err := s.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Lookup(entries[0].Meta)
	if rep.Score.Score != 8.5 {
		t.Fatalf("aggregation erased bootstrap score: %+v", rep.Score)
	}
}

func TestExpertFeeds(t *testing.T) {
	s, _ := newTestServer(t, nil)
	meta := testMeta(1)
	feed := s.Feed("cert.example.org")
	feed.Publish(ExpertAdvice{
		Software:  meta.ID,
		Score:     1.5,
		Behaviors: core.BehaviorKeylogging,
		Note:      "captures keystrokes, avoid",
	})
	if got := s.Feed("cert.example.org"); got.Len() != 1 {
		t.Fatal("feed lost its entry")
	}
	advice, ok := s.Feed("cert.example.org").Advice(meta.ID)
	if !ok || advice.Score != 1.5 || !advice.Behaviors.Has(core.BehaviorKeylogging) {
		t.Fatalf("advice = %+v, %v", advice, ok)
	}
	if _, ok := s.Feed("cert.example.org").Advice(testMeta(9).ID); ok {
		t.Fatal("phantom advice")
	}
	names := s.FeedNames()
	if len(names) != 1 || names[0] != "cert.example.org" {
		t.Fatalf("feed names = %v", names)
	}
}

// TestSignupThrottleForgetsPastDays: the throttle holds only the current
// day's addresses, so its memory is bounded by one day's signups, not by
// every address ever seen.
func TestSignupThrottleForgetsPastDays(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.MaxSignupsPerIPPerDay = 1 })
	signup := func(i int) {
		t.Helper()
		p := RegisterParams{Username: fmt.Sprintf("u-%d", i), Password: "pw", Email: fmt.Sprintf("u-%d@example.com", i)}
		if err := s.RegisterFrom(fmt.Sprintf("198.51.100.%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	const n = 20
	for i := range n {
		signup(i)
	}
	if got := len(s.signupIPs); got != n {
		t.Fatalf("%d addresses held on the day of %d signups", got, n)
	}
	clock.Advance(vclock.Day)
	signup(n)
	if got := len(s.signupIPs); got != 1 {
		t.Errorf("%d addresses held after a day passed and one signup, want 1", got)
	}
}

func TestUserTrustUnknownUser(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if _, err := s.UserTrust("ghost"); !errors.Is(err, repo.ErrUserNotFound) {
		t.Fatalf("unknown user err = %v", err)
	}
}

func TestSignupThrottlePerIP(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.MaxSignupsPerIPPerDay = 2 })
	mk := func(i int) RegisterParams {
		return RegisterParams{
			Username: fmt.Sprintf("bot-%d", i),
			Password: "pw",
			Email:    fmt.Sprintf("bot-%d@example.com", i),
		}
	}
	// Two signups from one address pass; the third is throttled.
	if err := s.RegisterFrom("203.0.113.7", mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFrom("203.0.113.7", mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFrom("203.0.113.7", mk(3)); !errors.Is(err, ErrSignupThrottled) {
		t.Fatalf("third signup err = %v", err)
	}
	// A different address is unaffected.
	if err := s.RegisterFrom("203.0.113.8", mk(4)); err != nil {
		t.Fatal(err)
	}
	// In-process callers (no address) are exempt.
	if err := s.Register(mk(5)); err != nil {
		t.Fatal(err)
	}
	// The budget resets the next day.
	clock.Advance(vclock.Day)
	if err := s.RegisterFrom("203.0.113.7", mk(6)); err != nil {
		t.Fatalf("next-day signup err = %v", err)
	}
	// The throttle keeps nothing in the store: no IPs in any record.
	err := s.Store().ForEachUser(func(u repo.User) bool {
		if strings.Contains(u.Username, "203.0.113") || strings.Contains(u.EmailHash, "203.0.113") {
			t.Fatalf("address leaked into user record: %+v", u)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommentModeration(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.ModerateComments = true })
	author := registerAndLogin(t, s, "author")
	meta := testMeta(1)

	cid, err := s.Vote(author, meta, 4, 0, "this needs a moderator's eyes")
	if err != nil || cid == 0 {
		t.Fatalf("vote: %d, %v", cid, err)
	}

	// The comment is held: lookups do not show it.
	rep, err := s.Lookup(meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Comments) != 0 {
		t.Fatalf("held comment published: %+v", rep.Comments)
	}
	// But the vote itself counts.
	if err := s.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Lookup(meta)
	if rep.Score.Votes != 1 {
		t.Fatalf("vote lost during moderation: %+v", rep.Score)
	}

	// The moderation queue lists it.
	pending, err := s.PendingComments()
	if err != nil || len(pending) != 1 || pending[0].ID != cid {
		t.Fatalf("pending = %+v, %v", pending, err)
	}

	// Approval publishes it.
	if err := s.ApproveComment(cid); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Lookup(meta)
	if len(rep.Comments) != 1 || rep.Comments[0].Text != "this needs a moderator's eyes" {
		t.Fatalf("approved comment missing: %+v", rep.Comments)
	}
	if pending, _ := s.PendingComments(); len(pending) != 0 {
		t.Fatal("queue not drained after approval")
	}

	// Rejection hides it again.
	if err := s.RejectComment(cid); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Lookup(meta)
	if len(rep.Comments) != 0 {
		t.Fatal("rejected comment still published")
	}

	// Without moderation, comments publish immediately.
	s2, _ := newTestServer(t, nil)
	author2 := registerAndLogin(t, s2, "author")
	if _, err := s2.Vote(author2, meta, 4, 0, "instant"); err != nil {
		t.Fatal(err)
	}
	rep2, _ := s2.Lookup(meta)
	if len(rep2.Comments) != 1 {
		t.Fatal("unmoderated comment not published")
	}
}
