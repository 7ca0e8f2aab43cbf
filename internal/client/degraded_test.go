package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/policy"
	"softreputation/internal/resilience"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// lookupStub is a minimal reputation server: every lookup answers a
// known report with the configured score, unless the stub is down (503,
// draining) or shedding (429, overloaded brownout) like the real
// load-shedding paths.
type lookupStub struct {
	mu    sync.Mutex
	down  bool
	shed  bool
	calls int
	score float64
}

func (s *lookupStub) setDown(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = v
}

func (s *lookupStub) setShedding(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shed = v
}

func (s *lookupStub) lookups() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *lookupStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	down, shed := s.down, s.shed
	if !down && !shed && r.URL.Path == wire.PathLookup {
		s.calls++
	}
	score := s.score
	s.mu.Unlock()
	if down {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeUnavailable, Message: "down"})
		return
	}
	if shed {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusTooManyRequests)
		_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeOverloaded, Message: "shed"})
		return
	}
	var req wire.LookupRequest
	if err := wire.Decode(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	_ = wire.Encode(w, &wire.LookupResponse{Known: true, ID: req.Software.ID, Score: score, Votes: 12})
}

// silentPolicy decides every known report without a prompt.
var silentPolicy = policy.MustParse(`
allow if known and rating >= 5.5
deny if known and rating < 5.5
default ask
`)

// degradedFixture wires the stub server, a resilient API and a host.
type degradedFixture struct {
	stub    *lookupStub
	clock   *vclock.Virtual
	breaker *resilience.Breaker
	client  *Client
	host    *hostsim.Host
	prompts *int
}

func newDegradedFixture(t *testing.T, cfg Config) *degradedFixture {
	t.Helper()
	stub := &lookupStub{score: 8}
	ts := httptest.NewServer(stub)
	t.Cleanup(ts.Close)
	clock := vclock.NewVirtual(vclock.Epoch)
	breaker := resilience.NewBreaker(2, time.Minute, clock)
	api := NewAPI(ts.URL, ts.Client()).WithResilience(resilience.NewExecutor(
		resilience.Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Multiplier: 2},
		breaker, clock, 1,
	))
	prompts := 0
	cfg.API = api
	cfg.Clock = clock
	cfg.Policy = silentPolicy
	cfg.Prompter = PrompterFuncs{
		Decide: func(core.SoftwareMeta, Report) bool {
			prompts++
			return true
		},
	}
	c := New(cfg)
	host := hostsim.NewHost("degraded-host")
	host.SetHook(c)
	return &degradedFixture{
		stub: stub, clock: clock, breaker: breaker,
		client: c, host: host, prompts: &prompts,
	}
}

func (f *degradedFixture) install(t *testing.T, name string) (string, *hostsim.Executable) {
	t.Helper()
	exe := hostsim.Build(hostsim.Spec{
		FileName: name + ".exe", Vendor: "Acme", Version: "1",
		Seed: int64(len(name)) * 7,
	})
	path := "C:/Apps/" + name + ".exe"
	f.host.Install(path, exe)
	return path, exe
}

func (f *degradedFixture) exec(t *testing.T, path string) hostsim.ExecResult {
	t.Helper()
	res, err := f.host.Exec(path, f.clock.Now())
	if err != nil {
		t.Fatalf("exec %s: %v", path, err)
	}
	return res
}

func TestCacheFreshHitAndTTLExpiry(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour})
	pathA, exeA := f.install(t, "alpha")
	_, exeB := f.install(t, "beta")

	metaA, _ := exeA.Meta()
	metaB, _ := exeB.Meta()
	n, err := f.client.Prefetch(context.Background(), []core.SoftwareMeta{metaA, metaB})
	if err != nil || n != 2 {
		t.Fatalf("prefetch: n=%d err=%v", n, err)
	}
	if f.stub.lookups() != 2 {
		t.Fatalf("server lookups = %d, want 2", f.stub.lookups())
	}

	// Within the TTL: the decision is served from cache, no round trip.
	if res := f.exec(t, pathA); !res.Allowed {
		t.Fatal("cached high-score report should allow")
	}
	if f.stub.lookups() != 2 {
		t.Fatalf("fresh cache hit still called the server (%d lookups)", f.stub.lookups())
	}
	if st := f.client.Stats(); st.CacheHits != 1 || st.PromptsShown != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Past the TTL: the next decision refetches.
	f.clock.Advance(2 * time.Hour)
	pathB := "C:/Apps/beta.exe"
	if res := f.exec(t, pathB); !res.Allowed {
		t.Fatal("refetched report should allow")
	}
	if f.stub.lookups() != 3 {
		t.Fatalf("expired entry was not refetched (%d lookups)", f.stub.lookups())
	}
	if st := f.client.Stats(); st.CacheHits != 1 || st.StaleServes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStaleServeWhileBreakerOpen(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour})
	pathA, exeA := f.install(t, "gamma")

	metaA, _ := exeA.Meta()
	if _, err := f.client.Prefetch(context.Background(), []core.SoftwareMeta{metaA}); err != nil {
		t.Fatal(err)
	}

	// The cache entry expires, then the server dies.
	f.clock.Advance(2 * time.Hour)
	f.stub.setDown(true)

	// The decision still happens, silently, from the stale report; the
	// failed attempts trip the breaker.
	if res := f.exec(t, pathA); !res.Allowed {
		t.Fatal("stale high-score report should allow")
	}
	st := f.client.Stats()
	if st.StaleServes != 1 {
		t.Fatalf("stale serves = %d, want 1", st.StaleServes)
	}
	if *f.prompts != 0 {
		t.Fatalf("prompted %d times during outage with warm cache", *f.prompts)
	}
	if f.breaker.State() != resilience.Open {
		t.Fatalf("breaker = %v, want open", f.breaker.State())
	}

	// The stale report is a real report: it reaches the policy engine
	// and produces a silent judgement, not a fail-open shrug.
	if st.PolicyAllowed != 1 || st.FailOpenAllows != 0 {
		t.Fatalf("stats = %+v, want the stale report decided by policy", st)
	}
}

func TestHalfOpenProbeRecovery(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour})
	pathA, exeA := f.install(t, "delta")
	pathB, _ := f.install(t, "epsilon")

	metaA, _ := exeA.Meta()
	if _, err := f.client.Prefetch(context.Background(), []core.SoftwareMeta{metaA}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(2 * time.Hour)
	f.stub.setDown(true)
	f.exec(t, pathA) // trips the breaker via the failed lookups
	if f.breaker.State() != resilience.Open {
		t.Fatalf("breaker = %v, want open", f.breaker.State())
	}

	// Server recovers; after the cooldown one probe closes the circuit
	// and the next decision is a normal fresh lookup.
	f.stub.setDown(false)
	f.clock.Advance(2 * time.Minute)
	if res := f.exec(t, pathB); !res.Allowed {
		t.Fatal("post-recovery decision should allow")
	}
	if f.breaker.State() != resilience.Closed {
		t.Fatalf("breaker = %v, want closed after good probe", f.breaker.State())
	}
	if st := f.breaker.Stats(); st.Probes < 1 {
		t.Fatalf("breaker stats = %+v, want a half-open probe", st)
	}
	if *f.prompts != 0 {
		t.Fatalf("prompted %d times", *f.prompts)
	}
}

func TestFailClosedBlocksNonCriticalAllowsCritical(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour, OnLookupFailure: FailClosed})
	pathApp, exeApp := f.install(t, "zeta")
	pathSys, _ := f.install(t, "kernel")
	f.host.MarkCritical(pathSys)

	f.stub.setDown(true)

	// Non-critical, no cached report: silently denied, not blacklisted.
	if res := f.exec(t, pathApp); res.Allowed {
		t.Fatal("fail-closed must deny an unknown program during an outage")
	}
	if f.client.IsBlacklisted(exeApp.ID()) {
		t.Fatal("fail-closed denial must not land on the black list")
	}

	// Critical system process: always allowed, host never crashes.
	res := f.exec(t, pathSys)
	if !res.Allowed || res.CrashedHost || f.host.Crashed() {
		t.Fatalf("critical process: %+v, crashed=%v", res, f.host.Crashed())
	}

	st := f.client.Stats()
	if st.FailClosedDenies != 1 || st.CriticalBypasses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if *f.prompts != 0 {
		t.Fatalf("fail-closed prompted %d times", *f.prompts)
	}
}

func TestFailOpenAllowsWithoutWhitelisting(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour, OnLookupFailure: FailOpen})
	path, exe := f.install(t, "eta")
	f.stub.setDown(true)

	for i := 0; i < 2; i++ {
		if res := f.exec(t, path); !res.Allowed {
			t.Fatalf("fail-open run %d denied", i)
		}
	}
	st := f.client.Stats()
	if st.FailOpenAllows != 2 {
		t.Fatalf("fail-open allows = %d, want 2 (decision must not be remembered)", st.FailOpenAllows)
	}
	if f.client.IsWhitelisted(exe.ID()) {
		t.Fatal("fail-open allow must not land on the white list")
	}
	if *f.prompts != 0 {
		t.Fatalf("fail-open prompted %d times", *f.prompts)
	}
}

func TestPrefetchCachesOnlyKnownReports(t *testing.T) {
	f := newDegradedFixture(t, Config{CacheTTL: time.Hour})
	// A meta the stub has never seen still comes back Known (the stub
	// says Known for everything), so craft the check the other way:
	// with caching disabled Prefetch is a no-op.
	noCache := newDegradedFixture(t, Config{})
	_, exe := noCache.install(t, "theta")
	meta, _ := exe.Meta()
	n, err := noCache.client.Prefetch(context.Background(), []core.SoftwareMeta{meta})
	if err != nil || n != 0 {
		t.Fatalf("prefetch without cache: n=%d err=%v", n, err)
	}
	if noCache.client.CachedReports() != 0 {
		t.Fatal("cacheless client stored a report")
	}
	_ = f
}

func TestLookupTimeoutBoundsDecision(t *testing.T) {
	// A server that hangs longer than the configured LookupTimeout: the
	// decision must come back via the failure policy, not hang the hook.
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(block)

	prompts := 0
	c := New(Config{
		API:             NewAPI(ts.URL, ts.Client()),
		Clock:           vclock.Real{},
		LookupTimeout:   50 * time.Millisecond,
		OnLookupFailure: FailOpen,
		Prompter: PrompterFuncs{Decide: func(core.SoftwareMeta, Report) bool {
			prompts++
			return true
		}},
	})
	host := hostsim.NewHost("timeout-host")
	host.SetHook(c)
	exe := hostsim.Build(hostsim.Spec{FileName: "iota.exe", Vendor: "Acme", Version: "1", Seed: 99})
	host.Install("C:/Apps/iota.exe", exe)

	start := time.Now()
	res, err := host.Exec("C:/Apps/iota.exe", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Allowed {
		t.Fatal("fail-open after timeout should allow")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("decision took %v; the hook must not hang on a dead server", elapsed)
	}
	if st := c.Stats(); st.LookupFailures != 1 || st.FailOpenAllows != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if prompts != 0 {
		t.Fatalf("prompted %d times", prompts)
	}

	// The rating prompt runs inside the hook too: on the 51st execution of
	// a program the report it shows and the vote it casts are bounded by
	// the same timeout, and the lookup is counted like any other.
	c.SetSession("session")
	rated := hostsim.Build(hostsim.Spec{FileName: "kappa.exe", Vendor: "Acme", Version: "1", Seed: 100})
	host.Install("C:/Apps/kappa.exe", rated)
	c.Whitelist(rated.ID())
	ratings := 0
	c.prompter = PrompterFuncs{Rate: func(core.SoftwareMeta, Report) (Rating, bool) {
		ratings++
		return Rating{Score: 7}, true
	}}
	done := make(chan error, 1)
	go func() {
		for i := 0; i <= DefaultRatingPromptThreshold; i++ {
			if _, err := host.Exec("C:/Apps/kappa.exe", time.Now()); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the rating prompt hung the hook on a stalled server")
	}
	if st := c.Stats(); ratings != 1 || st.RatingPrompts != 1 || st.RatingsSubmitted != 0 || st.Lookups != 2 || st.LookupFailures != 2 {
		t.Fatalf("ratings = %d, stats = %+v", ratings, st)
	}
}
