package client

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/policy"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/signature"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// fixture wires a real server (httptest), a simulated host and a client
// into the full §3.1 loop.
type fixture struct {
	t     *testing.T
	srv   *server.Server
	ts    *httptest.Server
	clock *vclock.Virtual
	api   *API
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	clock := vclock.NewVirtual(vclock.Epoch)
	srv, err := server.New(server.Config{Store: store, Clock: clock, EmailPepper: "pepper"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{
		t:     t,
		srv:   srv,
		ts:    ts,
		clock: clock,
		api:   NewAPI(ts.URL, ts.Client()),
	}
}

// signup runs the full registration flow over the API and returns a
// session token.
func (f *fixture) signup(username string) string {
	f.t.Helper()
	email := username + "@example.com"
	if err := f.api.Register(context.Background(), wire.RegisterRequest{Username: username, Password: "pw", Email: email}); err != nil {
		f.t.Fatalf("register: %v", err)
	}
	mail, ok := f.srv.Mailer().(*server.MemoryMailer).Read(email)
	if !ok {
		f.t.Fatal("no activation mail")
	}
	if _, err := f.api.Activate(context.Background(), mail.Token); err != nil {
		f.t.Fatalf("activate: %v", err)
	}
	session, err := f.api.Login(context.Background(), username, "pw")
	if err != nil {
		f.t.Fatalf("login: %v", err)
	}
	return session
}

func buildExe(seed int64, vendor string) *hostsim.Executable {
	return hostsim.Build(hostsim.Spec{
		FileName: "app.exe",
		Vendor:   vendor,
		Version:  "1.0",
		Seed:     seed,
		Profile:  hostsim.Profile{Category: core.CategoryLegitimate, TrueScore: 7},
	})
}

func TestAPISignupAndVoteFlow(t *testing.T) {
	f := newFixture(t)
	session := f.signup("alice")

	exe := buildExe(1, "Acme")
	meta, _ := exe.Meta()

	rep, err := f.api.Lookup(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Known {
		t.Fatal("first lookup must be unknown")
	}

	cid, err := f.api.Vote(context.Background(), session, meta, Rating{Score: 8, Behaviors: core.BehaviorStartupRegistration, Comment: "good"})
	if err != nil || cid == 0 {
		t.Fatalf("vote: %d, %v", cid, err)
	}
	if err := f.srv.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	rep, err = f.api.Lookup(context.Background(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Known || rep.Score != 8 || rep.Votes != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Behaviors.Has(core.BehaviorStartupRegistration) {
		t.Fatal("behaviours lost over the wire")
	}
	if len(rep.Comments) != 1 || rep.Comments[0].Text != "good" {
		t.Fatalf("comments = %+v", rep.Comments)
	}

	// Second user remarks the comment over the API.
	session2 := f.signup("bob")
	if err := f.api.Remark(context.Background(), session2, cid, true); err != nil {
		t.Fatal(err)
	}
	vend, err := f.api.Vendor(context.Background(), "Acme")
	if err != nil || !vend.Known {
		t.Fatalf("vendor: %+v, %v", vend, err)
	}
	stats, err := f.api.Stats(context.Background())
	if err != nil || stats.Users != 2 {
		t.Fatalf("stats: %+v, %v", stats, err)
	}
}

func TestClientPromptAndListMemory(t *testing.T) {
	f := newFixture(t)
	prompts := 0
	allow := true
	c := New(Config{
		API:   f.api,
		Clock: f.clock,
		Prompter: PrompterFuncs{
			Decide: func(meta core.SoftwareMeta, rep Report) bool {
				prompts++
				return allow
			},
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	exe := buildExe(1, "Acme")
	host.Install("C:/app.exe", exe)

	// First execution prompts; the allow is remembered.
	res, err := host.Exec("C:/app.exe", f.clock.Now())
	if err != nil || !res.Allowed {
		t.Fatalf("exec1: %+v, %v", res, err)
	}
	if prompts != 1 {
		t.Fatalf("prompts = %d", prompts)
	}
	for i := 0; i < 5; i++ {
		host.Exec("C:/app.exe", f.clock.Now())
	}
	if prompts != 1 {
		t.Fatalf("white-listed software re-prompted: %d", prompts)
	}
	if !c.IsWhitelisted(exe.ID()) {
		t.Fatal("allowed executable not white-listed")
	}
	st := c.Stats()
	if st.PromptsShown != 1 || st.AutoAllowedList != 5 || st.Lookups != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A denied executable lands on the black list.
	allow = false
	bad := buildExe(2, "Shady")
	host.Install("C:/bad.exe", bad)
	res, _ = host.Exec("C:/bad.exe", f.clock.Now())
	if res.Allowed {
		t.Fatal("deny ignored")
	}
	host.Exec("C:/bad.exe", f.clock.Now())
	if prompts != 2 {
		t.Fatalf("black-listed software re-prompted: %d", prompts)
	}
	if !c.IsBlacklisted(bad.ID()) {
		t.Fatal("denied executable not black-listed")
	}
}

func TestClientSignatureWhitelisting(t *testing.T) {
	f := newFixture(t)
	osVendor, err := signature.NewSigner("Microsoft")
	if err != nil {
		t.Fatal(err)
	}
	trust := signature.NewTrustStore()
	trust.RegisterKey("Microsoft", osVendor.PublicKey())
	trust.SetTrusted("Microsoft", true)

	prompts := 0
	c := New(Config{
		API:        f.api,
		Clock:      f.clock,
		TrustStore: trust,
		Prompter: PrompterFuncs{
			Decide: func(core.SoftwareMeta, Report) bool { prompts++; return false },
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	system := hostsim.InstallStandardSystem(host, osVendor)

	// Every critical process runs without a prompt and without a crash,
	// even though the user would deny everything.
	for path := range system {
		res, err := host.Exec(path, f.clock.Now())
		if err != nil || !res.Allowed {
			t.Fatalf("system process %s: %+v, %v", path, res, err)
		}
	}
	if prompts != 0 {
		t.Fatalf("trusted-signature files prompted %d times", prompts)
	}
	if host.Crashed() {
		t.Fatal("host crashed despite signature whitelisting")
	}
	if c.Stats().AutoAllowedSignature != len(system) {
		t.Fatalf("signature auto-allows = %d", c.Stats().AutoAllowedSignature)
	}

	// An unsigned file still prompts (and here gets denied).
	unsigned := buildExe(9, "Nobody")
	host.Install("C:/unsigned.exe", unsigned)
	res, _ := host.Exec("C:/unsigned.exe", f.clock.Now())
	if res.Allowed || prompts != 1 {
		t.Fatalf("unsigned file: allowed=%v prompts=%d", res.Allowed, prompts)
	}
}

func TestClientPolicyEnforcement(t *testing.T) {
	f := newFixture(t)

	// Publish a score for a known-good and a known-bad program.
	good := buildExe(1, "GoodSoft")
	bad := buildExe(2, "AdWarehouse")
	goodMeta, _ := good.Meta()
	badMeta, _ := bad.Meta()
	err := f.srv.Bootstrap([]server.BootstrapEntry{
		{Meta: goodMeta, Score: 9.1, Votes: 50},
		{Meta: badMeta, Score: 8.0, Votes: 40, Behaviors: core.BehaviorDisplaysAds},
	})
	if err != nil {
		t.Fatal(err)
	}

	pol := policy.MustParse(`
allow if rating >= 7.5 and not behavior:displays-ads
deny if behavior:displays-ads
default ask
`)
	prompts := 0
	c := New(Config{
		API:    f.api,
		Clock:  f.clock,
		Policy: pol,
		Prompter: PrompterFuncs{
			Decide: func(core.SoftwareMeta, Report) bool { prompts++; return true },
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	host.Install("C:/good.exe", good)
	host.Install("C:/bad.exe", bad)
	host.Install("C:/unknown.exe", buildExe(3, "Mystery"))

	res, _ := host.Exec("C:/good.exe", f.clock.Now())
	if !res.Allowed {
		t.Fatal("policy should allow the high-rated clean program")
	}
	res, _ = host.Exec("C:/bad.exe", f.clock.Now())
	if res.Allowed {
		t.Fatal("policy should deny the ad-shower despite its rating")
	}
	if prompts != 0 {
		t.Fatalf("policy decisions prompted the user %d times", prompts)
	}
	// The unknown program falls through to the prompt.
	res, _ = host.Exec("C:/unknown.exe", f.clock.Now())
	if !res.Allowed || prompts != 1 {
		t.Fatalf("unknown program: allowed=%v prompts=%d", res.Allowed, prompts)
	}
	st := c.Stats()
	if st.PolicyAllowed != 1 || st.PolicyDenied != 1 {
		t.Fatalf("policy stats = %+v", st)
	}
}

func TestRatingPromptThresholdAndWeeklyBudget(t *testing.T) {
	f := newFixture(t)
	session := f.signup("alice")

	ratePrompts := 0
	c := New(Config{
		API:     f.api,
		Session: session,
		Clock:   f.clock,
		Prompter: PrompterFuncs{
			Decide: func(core.SoftwareMeta, Report) bool { return true },
			Rate: func(meta core.SoftwareMeta, rep Report) (Rating, bool) {
				ratePrompts++
				return Rating{Score: 7, Comment: "used it a lot"}, true
			},
		},
		RatingPromptThreshold: 10, // scaled-down 50 for test speed
		MaxRatingPromptsWeek:  2,
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)

	// Install four programs the user runs heavily.
	paths := []string{"C:/a.exe", "C:/b.exe", "C:/c.exe", "C:/d.exe"}
	for i, p := range paths {
		host.Install(p, buildExe(int64(i+1), "Acme"))
	}

	// Run each program 10 times: at the threshold, still no prompt —
	// the paper asks "the next time it is started" after 10 runs.
	for i := 0; i < 10; i++ {
		for _, p := range paths {
			if _, err := host.Exec(p, f.clock.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ratePrompts != 0 {
		t.Fatalf("prompted at/below threshold: %d", ratePrompts)
	}

	// The 11th execution triggers the prompt, but the weekly budget
	// caps prompts at 2.
	for _, p := range paths {
		host.Exec(p, f.clock.Now())
	}
	if ratePrompts != 2 {
		t.Fatalf("rating prompts this week = %d, want 2", ratePrompts)
	}

	// Next week the remaining two programs get their prompts.
	f.clock.Advance(vclock.Week)
	for _, p := range paths {
		host.Exec(p, f.clock.Now())
	}
	if ratePrompts != 4 {
		t.Fatalf("rating prompts after new week = %d, want 4", ratePrompts)
	}

	// Rated programs are never prompted again.
	for i := 0; i < 5; i++ {
		for _, p := range paths {
			host.Exec(p, f.clock.Now())
		}
	}
	f.clock.Advance(vclock.Week)
	for _, p := range paths {
		host.Exec(p, f.clock.Now())
	}
	if ratePrompts != 4 {
		t.Fatalf("already-rated programs re-prompted: %d", ratePrompts)
	}

	// All four votes reached the server.
	st, err := f.srv.Store().Stats()
	if err != nil || st.Ratings != 4 {
		t.Fatalf("server ratings = %d, %v", st.Ratings, err)
	}
	if c.Stats().RatingsSubmitted != 4 {
		t.Fatalf("client submitted = %d", c.Stats().RatingsSubmitted)
	}
}

func TestRatingPromptDeclined(t *testing.T) {
	f := newFixture(t)
	session := f.signup("alice")
	c := New(Config{
		API:     f.api,
		Session: session,
		Clock:   f.clock,
		Prompter: PrompterFuncs{
			Decide: func(core.SoftwareMeta, Report) bool { return true },
			Rate:   func(core.SoftwareMeta, Report) (Rating, bool) { return Rating{}, false },
		},
		RatingPromptThreshold: 3,
		MaxRatingPromptsWeek:  5,
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	host.Install("C:/a.exe", buildExe(1, "Acme"))
	for i := 0; i < 7; i++ {
		host.Exec("C:/a.exe", f.clock.Now())
	}
	st := c.Stats()
	if st.RatingsSubmitted != 0 {
		t.Fatal("declined rating was submitted")
	}
	if st.RatingPrompts == 0 {
		t.Fatal("no rating prompt shown")
	}
	// No session: no prompts at all.
	c2 := New(Config{API: f.api, Clock: f.clock, RatingPromptThreshold: 2, MaxRatingPromptsWeek: 5})
	host2 := hostsim.NewHost("pc-2")
	host2.SetHook(c2)
	host2.Install("C:/a.exe", buildExe(2, "Acme"))
	for i := 0; i < 5; i++ {
		host2.Exec("C:/a.exe", f.clock.Now())
	}
	if c2.Stats().RatingPrompts != 0 {
		t.Fatal("sessionless client prompted for a rating")
	}
}

func TestClientOfflineFallsBackToPrompt(t *testing.T) {
	// API pointing at a dead server: the lookup fails and the client
	// still consults the user on an empty report.
	deadAPI := NewAPI("http://127.0.0.1:1", nil)
	prompts := 0
	c := New(Config{
		API:   deadAPI,
		Clock: vclock.NewVirtual(vclock.Epoch),
		Prompter: PrompterFuncs{
			Decide: func(meta core.SoftwareMeta, rep Report) bool {
				prompts++
				if rep.Known || rep.Votes != 0 {
					t.Errorf("offline report not empty: %+v", rep)
				}
				return false
			},
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	host.Install("C:/x.exe", buildExe(1, "Acme"))
	res, err := host.Exec("C:/x.exe", vclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allowed || prompts != 1 {
		t.Fatalf("offline flow: allowed=%v prompts=%d", res.Allowed, prompts)
	}
	if c.Stats().LookupFailures != 1 {
		t.Fatalf("lookup failures = %d", c.Stats().LookupFailures)
	}
}

func TestWhitelistBlacklistTransitions(t *testing.T) {
	c := New(Config{Clock: vclock.NewVirtual(vclock.Epoch)})
	id := core.ComputeSoftwareID([]byte("x"))
	c.Whitelist(id)
	if !c.IsWhitelisted(id) || c.IsBlacklisted(id) {
		t.Fatal("whitelist state wrong")
	}
	c.Blacklist(id)
	if c.IsWhitelisted(id) || !c.IsBlacklisted(id) {
		t.Fatal("blacklist must displace whitelist")
	}
	c.Whitelist(id)
	if !c.IsWhitelisted(id) || c.IsBlacklisted(id) {
		t.Fatal("whitelist must displace blacklist")
	}
}

func TestPolymorphicMalwareEvadesListsButNotVendorKeying(t *testing.T) {
	// §3.3: per-download re-hashing defeats content-hash lists — each
	// mutant is a fresh identity — while the vendor field stays stable,
	// which is exactly what vendor-level aggregation keys on.
	f := newFixture(t)
	denies := 0
	c := New(Config{
		API:   f.api,
		Clock: f.clock,
		Prompter: PrompterFuncs{
			Decide: func(core.SoftwareMeta, Report) bool { denies++; return false },
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)

	rng := newDeterministicRand()
	exe := buildExe(1, "EvasiveCorp")
	for i := 0; i < 5; i++ {
		host.Install("C:/dl.exe", exe)
		res, err := host.Exec("C:/dl.exe", f.clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		if res.Allowed {
			t.Fatal("prompter denies everything")
		}
		exe = exe.Mutate(rng)
	}
	// Every mutant prompted anew: the blacklist never matched.
	if denies != 5 {
		t.Fatalf("prompts = %d, want 5 (one per mutant)", denies)
	}
	// But all five mutants share one vendor record server-side.
	ids, err := f.srv.Store().SoftwareByVendor("EvasiveCorp")
	if err != nil || len(ids) != 5 {
		t.Fatalf("vendor index = %d entries, %v", len(ids), err)
	}
}

func TestStaleTimeUnused(t *testing.T) {
	// Guard: the fixture clock starts at the epoch, and client decisions
	// use it rather than the wall clock.
	c := New(Config{Clock: vclock.NewVirtual(vclock.Epoch)})
	if c.ExecCount(core.ComputeSoftwareID([]byte("y"))) != 0 {
		t.Fatal("fresh client has counts")
	}
	_ = time.Now
}

// newDeterministicRand returns a fixed-seed RNG for mutation tests.
func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestFeedSubscriptionsReachPrompter(t *testing.T) {
	// §4.2 subscriptions end to end: an organisation publishes advice
	// into a server feed; a client subscribed to that feed sees the
	// advice at the execution prompt, over the real wire protocol.
	f := newFixture(t)
	exe := buildExe(5, "WatchedSoft")
	meta, _ := exe.Meta()

	feed := f.srv.Feed("cert.example.org")
	feed.Publish(server.ExpertAdvice{
		Software:  meta.ID,
		Score:     2.0,
		Behaviors: core.BehaviorSendsPersonalData,
		Note:      "exfiltrates address books",
	})

	var seen []Advice
	c := New(Config{
		API:           f.api,
		Clock:         f.clock,
		Subscriptions: []string{"cert.example.org", "no-such-feed"},
		Prompter: PrompterFuncs{
			Decide: func(m core.SoftwareMeta, rep Report) bool {
				seen = rep.Advice
				return false
			},
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	host.Install("C:/watched.exe", exe)
	if _, err := host.Exec("C:/watched.exe", f.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("advice entries = %d, want 1 (unknown feeds are empty)", len(seen))
	}
	if seen[0].Feed != "cert.example.org" || seen[0].Score != 2.0 {
		t.Fatalf("advice = %+v", seen[0])
	}
	if !seen[0].Behaviors.Has(core.BehaviorSendsPersonalData) {
		t.Fatalf("advice behaviours = %v", seen[0].Behaviors)
	}
	if seen[0].Note != "exfiltrates address books" {
		t.Fatalf("advice note = %q", seen[0].Note)
	}

	// Unsubscribed clients see no advice.
	var plain []Advice
	c2 := New(Config{
		API:   f.api,
		Clock: f.clock,
		Prompter: PrompterFuncs{
			Decide: func(m core.SoftwareMeta, rep Report) bool {
				plain = rep.Advice
				return false
			},
		},
	})
	host.SetHook(c2)
	if _, err := host.Exec("C:/watched.exe", f.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if len(plain) != 0 {
		t.Fatalf("unsubscribed client received advice: %+v", plain)
	}
}

func TestClientConcurrentExecutions(t *testing.T) {
	// Many goroutines hammer OnExec for a mix of executables; the lists
	// and counters must stay consistent (run under -race in CI).
	f := newFixture(t)
	c := New(Config{
		API:   f.api,
		Clock: f.clock,
		Prompter: PrompterFuncs{
			Decide: func(meta core.SoftwareMeta, rep Report) bool {
				// Allow even seeds, deny odd ones, based on the filename.
				return len(meta.FileName)%2 == 0
			},
		},
	})
	host := hostsim.NewHost("pc-1")
	host.SetHook(c)
	exes := make([]*hostsim.Executable, 6)
	paths := make([]string, 6)
	for i := range exes {
		exes[i] = buildExe(int64(i+1), "ConcurrentSoft")
		paths[i] = fmt.Sprintf("C:/p/%d.exe", i)
		host.Install(paths[i], exes[i])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := host.Exec(paths[(g+i)%len(paths)], f.clock.Now()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every executable ended on exactly one list, and the decision is
	// consistent with the prompter rule.
	for i, exe := range exes {
		white := c.IsWhitelisted(exe.ID())
		black := c.IsBlacklisted(exe.ID())
		if white == black {
			t.Fatalf("exe %d: white=%v black=%v", i, white, black)
		}
	}
	st := c.Stats()
	if st.PromptsShown < len(exes) {
		t.Fatalf("prompts = %d, want >= %d", st.PromptsShown, len(exes))
	}
}
