package client

import (
	"context"
	"sync"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/policy"
	"softreputation/internal/signature"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Rating-prompt throttle defaults from §3.1: "The user is only asked to
// rate software which he has executed more than a predefined number of
// times, currently 50 times. … there is also a threshold on the number
// of software the user is asked to rate each week, currently two
// ratings per week."
const (
	DefaultRatingPromptThreshold = 50
	DefaultMaxRatingPromptsWeek  = 2
)

// FailurePolicy selects what the client does when a lookup fails and
// no cached report is available — the §4.2 stability question: the
// exec hook holds a frozen process, and the server is not answering.
type FailurePolicy int

// Failure policies.
const (
	// FailPrompt consults the user over an empty report (the
	// pre-resilience behaviour, and the default).
	FailPrompt FailurePolicy = iota
	// FailOpen allows the execution silently. The decision is not
	// remembered on the white list: it reflects an outage, not a
	// judgement about the software.
	FailOpen
	// FailClosed denies the execution silently — except for critical
	// system processes, which are always allowed so that a dead
	// reputation server can never take the host down (§4.2). Denials
	// are not remembered on the black list.
	FailClosed
)

// String names the policy for tables and logs.
func (p FailurePolicy) String() string {
	switch p {
	case FailOpen:
		return "fail-open"
	case FailClosed:
		return "fail-closed"
	default:
		return "prompt"
	}
}

// Prompter is the interactive user: the execution prompt of §3.1 and
// the rating prompt.
type Prompter interface {
	// DecideExecution is shown the pending executable and the report
	// downloaded from the server; it returns whether to allow the run.
	DecideExecution(meta core.SoftwareMeta, rep Report) bool
	// RateSoftware asks the user to grade a frequently used program.
	// ok=false means the user declined to rate.
	RateSoftware(meta core.SoftwareMeta, rep Report) (r Rating, ok bool)
}

// PrompterFuncs adapts plain functions to the Prompter interface; nil
// fields default to "allow" and "decline to rate".
type PrompterFuncs struct {
	Decide func(meta core.SoftwareMeta, rep Report) bool
	Rate   func(meta core.SoftwareMeta, rep Report) (Rating, bool)
}

// DecideExecution implements Prompter.
func (p PrompterFuncs) DecideExecution(meta core.SoftwareMeta, rep Report) bool {
	if p.Decide == nil {
		return true
	}
	return p.Decide(meta, rep)
}

// RateSoftware implements Prompter.
func (p PrompterFuncs) RateSoftware(meta core.SoftwareMeta, rep Report) (Rating, bool) {
	if p.Rate == nil {
		return Rating{}, false
	}
	return p.Rate(meta, rep)
}

// Config configures a Client.
type Config struct {
	// API is the server connection; required for lookups and votes.
	API *API
	// Session is the logged-in session token; empty disables voting.
	Session string
	// Clock is the time source; nil selects the system clock.
	Clock vclock.Clock
	// Prompter is the interactive user; nil allows everything silently.
	Prompter Prompter
	// TrustStore enables §4.2 signature whitelisting when non-nil:
	// validly signed files from trusted vendors run without any prompt.
	TrustStore *signature.TrustStore
	// Policy, when non-nil, is evaluated before the user prompt; Allow
	// and Deny decisions are enforced silently, Ask falls through to
	// the prompt.
	Policy *policy.Policy
	// RatingPromptThreshold and MaxRatingPromptsWeek override the §3.1
	// defaults when positive.
	RatingPromptThreshold int
	MaxRatingPromptsWeek  int
	// Subscriptions names the §4.2 expert feeds whose advice lookups
	// should carry; advice reaches the Prompter via Report.Advice.
	Subscriptions []string

	// CacheTTL enables the degraded-mode report cache: lookups within
	// the TTL are served locally, and when the server is unreachable
	// (or the circuit breaker is open) expired entries are served
	// stale rather than failing the decision. 0 disables caching.
	CacheTTL time.Duration
	// OnLookupFailure selects the degraded-mode decision when a
	// lookup fails and no cached report exists; the zero value keeps
	// the historical prompt-on-empty-report behaviour.
	OnLookupFailure FailurePolicy
	// LookupTimeout bounds each decision's lookup (retries included);
	// 0 means no overall deadline beyond the API's own policy.
	LookupTimeout time.Duration
}

// Stats counts client-side decision outcomes.
type Stats struct {
	// Lookups is the number of server lookups performed.
	Lookups int
	// PromptsShown counts interactive execution prompts.
	PromptsShown int
	// AutoAllowedList / AutoDeniedList are white/black list hits.
	AutoAllowedList int
	AutoDeniedList  int
	// AutoAllowedSignature counts §4.2 trusted-signature auto-allows.
	AutoAllowedSignature int
	// PolicyAllowed / PolicyDenied count silent policy decisions.
	PolicyAllowed int
	PolicyDenied  int
	// RatingPrompts counts rating prompts shown; RatingsSubmitted the
	// votes actually cast.
	RatingPrompts    int
	RatingsSubmitted int
	// LookupFailures counts lookups that errored (server unreachable,
	// overloaded, or fast-failed by the circuit breaker).
	LookupFailures int
	// CacheHits counts decisions served from a fresh cached report
	// without a network round trip.
	CacheHits int
	// StaleServes counts decisions that fell back to an expired
	// cached report because the server was unreachable.
	StaleServes int
	// FailOpenAllows / FailClosedDenies count degraded-mode decisions
	// taken without a report under the configured FailurePolicy.
	FailOpenAllows   int
	FailClosedDenies int
	// CriticalBypasses counts critical system processes allowed while
	// fail-closed — the §4.2 "never crash the host" guarantee.
	CriticalBypasses int
}

// cacheEntry is one cached lookup report.
type cacheEntry struct {
	rep Report
	at  time.Time
}

// Client is the per-machine reputation client. It implements
// hostsim.Hook: installing it on a host routes every execution through
// the decision flow of §3.1. It is safe for concurrent use.
type Client struct {
	api      *API
	prompter Prompter
	clock    vclock.Clock
	trust    *signature.TrustStore
	policy   *policy.Policy

	threshold     int
	weekBudget    int
	subscriptions []string
	cacheTTL      time.Duration
	onFailure     FailurePolicy
	lookupTimeout time.Duration

	mu          sync.Mutex
	session     string
	white       map[core.SoftwareID]bool
	black       map[core.SoftwareID]bool
	execCount   map[core.SoftwareID]int
	rated       map[core.SoftwareID]bool
	cache       map[core.SoftwareID]cacheEntry
	start       time.Time
	promptWeek  int
	promptsWeek int
	stats       Stats
}

// New creates a client.
func New(cfg Config) *Client {
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	prompter := cfg.Prompter
	if prompter == nil {
		prompter = PrompterFuncs{}
	}
	threshold := cfg.RatingPromptThreshold
	if threshold <= 0 {
		threshold = DefaultRatingPromptThreshold
	}
	budget := cfg.MaxRatingPromptsWeek
	if budget <= 0 {
		budget = DefaultMaxRatingPromptsWeek
	}
	return &Client{
		api:           cfg.API,
		prompter:      prompter,
		clock:         clock,
		trust:         cfg.TrustStore,
		policy:        cfg.Policy,
		threshold:     threshold,
		weekBudget:    budget,
		subscriptions: cfg.Subscriptions,
		cacheTTL:      cfg.CacheTTL,
		onFailure:     cfg.OnLookupFailure,
		lookupTimeout: cfg.LookupTimeout,
		session:       cfg.Session,
		white:         make(map[core.SoftwareID]bool),
		black:         make(map[core.SoftwareID]bool),
		execCount:     make(map[core.SoftwareID]int),
		rated:         make(map[core.SoftwareID]bool),
		cache:         make(map[core.SoftwareID]cacheEntry),
		start:         clock.Now(),
	}
}

// SetSession installs the logged-in session token.
func (c *Client) SetSession(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.session = token
}

// Whitelist marks an executable as always allowed.
func (c *Client) Whitelist(id core.SoftwareID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.white[id] = true
	delete(c.black, id)
}

// Blacklist marks an executable as always denied.
func (c *Client) Blacklist(id core.SoftwareID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.black[id] = true
	delete(c.white, id)
}

// IsWhitelisted reports whether the executable is on the white list.
func (c *Client) IsWhitelisted(id core.SoftwareID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.white[id]
}

// IsBlacklisted reports whether the executable is on the black list.
func (c *Client) IsBlacklisted(id core.SoftwareID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.black[id]
}

// Stats returns a snapshot of the decision counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// cachePut stores a report. Only reports the server actually knows are
// worth keeping: a cached "unknown" would suppress the refetch that
// could find a newly published score.
func (c *Client) cachePut(id core.SoftwareID, rep Report, now time.Time) {
	if c.cacheTTL <= 0 || !rep.Known {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[id] = cacheEntry{rep: rep, at: now}
}

// CachedReports returns how many reports the lookup cache holds.
func (c *Client) CachedReports() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// Prefetch warms the lookup cache with the reports for the given
// executables — installed software, typically, fetched in the
// background at boot so that a later server outage finds a warm cache.
// It returns how many reports were cached; the first lookup error
// stops the sweep.
func (c *Client) Prefetch(ctx context.Context, metas []core.SoftwareMeta) (int, error) {
	if c.api == nil || c.cacheTTL <= 0 {
		return 0, nil
	}
	// Prefetch is cache warming: the admission layer should shed it
	// long before it touches a lookup holding a frozen process.
	ctx, cancel := c.bounded(WithPriority(ctx, wire.PriorityBackground), len(metas)+1)
	defer cancel()
	// The whole sweep rides batched lookups: one wire round trip per
	// wire.MaxBatchLookups chunk in binary, sequential singles in XML.
	results, err := c.api.LookupBatch(ctx, metas, c.subscriptions...)
	cached, failed := 0, 0
	if err != nil {
		failed = len(metas)
	}
	now := c.clock.Now()
	for i, res := range results {
		if res.Err != nil {
			failed++
			if err == nil {
				err = res.Err
			}
			continue
		}
		c.cachePut(metas[i].ID, res.Report, now)
		if res.Report.Known {
			cached++
		}
	}
	c.mu.Lock()
	c.stats.Lookups += len(metas)
	c.stats.LookupFailures += failed
	c.mu.Unlock()
	return cached, err
}

// bounded gives a server exchange the configured LookupTimeout, n times
// over for n lookups: the hook holds a frozen process while it waits.
func (c *Client) bounded(ctx context.Context, n int) (context.Context, context.CancelFunc) {
	if c.lookupTimeout > 0 {
		return context.WithTimeout(ctx, time.Duration(n)*c.lookupTimeout)
	}
	return ctx, func() {}
}

// lookup performs one server lookup with the configured deadline and
// updates the cache and counters.
func (c *Client) lookup(ctx context.Context, meta core.SoftwareMeta) (Report, error) {
	ctx, cancel := c.bounded(ctx, 1)
	defer cancel()
	rep, err := c.api.Lookup(ctx, meta, c.subscriptions...)
	c.mu.Lock()
	c.stats.Lookups++
	if err != nil {
		c.stats.LookupFailures++
	}
	c.mu.Unlock()
	if err == nil {
		c.cachePut(meta.ID, rep, c.clock.Now())
	}
	return rep, err
}

// fetch gets the report a decision rests on: a fresh cache entry first,
// then the server, then a stale cache entry when the server cannot
// answer. The result is false when there is none at all.
func (c *Client) fetch(meta core.SoftwareMeta, critical bool) (Report, bool) {
	c.mu.Lock()
	cached, hit := c.cache[meta.ID] // empty unless CacheTTL is set
	c.mu.Unlock()
	if hit && c.clock.Now().Sub(cached.at) <= c.cacheTTL {
		c.count(causeCacheHit)
		return cached.rep, true
	}
	// A lookup for a frozen critical system process tells the server so:
	// the admission layer admits it ahead of everything else, end to end
	// with the fail-closed bypass.
	ctx := context.Background()
	if critical {
		ctx = WithPriority(ctx, wire.PriorityCritical)
	}
	if rep, err := c.lookup(ctx, meta); err == nil {
		return rep, true
	}
	if hit {
		// Degraded mode: the server is unreachable (or the breaker is
		// open); an expired report beats none.
		c.count(causeStaleServe)
	}
	return cached.rep, hit
}

// cause is why OnExec decided as it did, or where the report it decided
// on came from: every counted step of the §3.1 flow. It names the counter
// it moves and, for the causes that settle an execution, the decision and
// whether it is remembered on the white or black list. Degraded-mode
// decisions are not: they reflect an outage, not a judgement about the
// software.
type cause struct {
	counter         func(*Stats) *int
	allow, remember bool
}

var (
	causeWhitelisted    = &cause{func(s *Stats) *int { return &s.AutoAllowedList }, true, false}
	causeBlacklisted    = &cause{func(s *Stats) *int { return &s.AutoDeniedList }, false, false}
	causeSignature      = &cause{func(s *Stats) *int { return &s.AutoAllowedSignature }, true, true}
	causeCacheHit       = &cause{counter: func(s *Stats) *int { return &s.CacheHits }}
	causeStaleServe     = &cause{counter: func(s *Stats) *int { return &s.StaleServes }}
	causeFailOpen       = &cause{func(s *Stats) *int { return &s.FailOpenAllows }, true, false}
	causeFailClosed     = &cause{func(s *Stats) *int { return &s.FailClosedDenies }, false, false}
	causeCriticalBypass = &cause{func(s *Stats) *int { return &s.CriticalBypasses }, true, false}
	causePolicyAllow    = &cause{func(s *Stats) *int { return &s.PolicyAllowed }, true, true}
	causePolicyDeny     = &cause{func(s *Stats) *int { return &s.PolicyDenied }, false, true}
	causePromptAllow    = &cause{func(s *Stats) *int { return &s.PromptsShown }, true, true}
	causePromptDeny     = &cause{func(s *Stats) *int { return &s.PromptsShown }, false, true}
)

// count moves why's counter.
func (c *Client) count(why *cause) {
	c.mu.Lock()
	*why.counter(&c.stats)++
	c.mu.Unlock()
}

// settle ends OnExec for cause why: counted, remembered where the cause
// says so, and an allowed execution goes on to the usage bookkeeping with
// the report the decision rested on, nil when it needed none.
func (c *Client) settle(id core.SoftwareID, req hostsim.ExecRequest, why *cause, rep *Report) hostsim.Decision {
	c.mu.Lock()
	*why.counter(&c.stats)++
	switch {
	case why.remember && why.allow:
		c.white[id] = true
	case why.remember:
		c.black[id] = true
	}
	c.mu.Unlock()
	if !why.allow {
		return hostsim.Deny
	}
	c.afterAllowed(id, req, rep)
	return hostsim.Allow
}

// execMeta reads the metadata from the image itself; a malformed image
// still gets a content-hash identity.
func execMeta(id core.SoftwareID, req hostsim.ExecRequest) core.SoftwareMeta {
	meta, err := hostsim.ParseMeta(req.Content)
	if err != nil {
		meta = core.SoftwareMeta{ID: id, FileName: req.Path, FileSize: int64(len(req.Content))}
	}
	return meta
}

// OnExec implements hostsim.Hook: the §3.1 decision flow. The driver
// has suspended the process; this method decides allow/deny.
func (c *Client) OnExec(req hostsim.ExecRequest) hostsim.Decision {
	id := core.ComputeSoftwareID(req.Content)

	// 1. List hits decide instantly, with no server round trip and no
	// user interaction (§3.1).
	c.mu.Lock()
	white, black := c.white[id], c.black[id]
	c.mu.Unlock()
	switch {
	case white:
		return c.settle(id, req, causeWhitelisted, nil)
	case black:
		return c.settle(id, req, causeBlacklisted, nil)
	}

	// 2. Signature whitelisting (§4.2): a valid signature from a
	// trusted vendor auto-allows and goes straight onto the white list.
	if c.trust != nil && c.trust.VerifyTrusted(req.Content, req.Sig) {
		return c.settle(id, req, causeSignature, nil)
	}

	// 3. Fetch the report. With no API configured the client decides
	// locally, over an empty one.
	meta := execMeta(id, req)
	var rep Report
	haveReport := c.api == nil
	if !haveReport {
		rep, haveReport = c.fetch(meta, req.Critical)
	}

	// 3b. No report at all: apply the configured failure policy.
	// FailPrompt falls through to policy and prompt with the empty report.
	if !haveReport {
		switch {
		case c.onFailure == FailOpen:
			return c.settle(id, req, causeFailOpen, &rep)
		case c.onFailure == FailClosed && req.Critical:
			// Never block a critical process on a dead server (§4.2):
			// denying it would crash the host.
			return c.settle(id, req, causeCriticalBypass, &rep)
		case c.onFailure == FailClosed:
			return c.settle(id, req, causeFailClosed, &rep)
		}
	}

	// 4. Policy evaluation (§4.2): silent allow/deny, or fall through
	// to the user.
	if c.policy != nil {
		ctx := policy.Context{
			Known:           rep.Known,
			VendorKnown:     meta.VendorKnown(),
			Vendor:          meta.Vendor,
			Rating:          rep.Score,
			Votes:           rep.Votes,
			VendorRating:    rep.VendorScore,
			Behaviors:       rep.Behaviors,
			Signed:          !req.Sig.IsZero(),
			SignedByTrusted: c.trust != nil && c.trust.VerifyTrusted(req.Content, req.Sig),
		}
		switch c.policy.Evaluate(ctx) {
		case policy.Allow:
			return c.settle(id, req, causePolicyAllow, &rep)
		case policy.Deny:
			return c.settle(id, req, causePolicyDeny, &rep)
		}
	}

	// 5. The user decides; the answer is remembered on the appropriate
	// list so the same executable never prompts twice.
	if c.prompter.DecideExecution(meta, rep) {
		return c.settle(id, req, causePromptAllow, &rep)
	}
	return c.settle(id, req, causePromptDeny, &rep)
}

// afterAllowed performs post-execution bookkeeping: usage counting and
// the §3.1 rating prompt ("when the user has executed a specific
// software 50 times she will be asked to rate it the next time it is
// started, unless two software already has been rated that week").
// Matching that wording exactly, the prompt fires on the execution
// *after* the threshold-th run. It runs before OnExec returns, so what it
// asks of the server is bounded like the decision's own lookup: rep is
// the report OnExec already holds, fetched (cache first) only when the
// decision needed none, and the vote has the same deadline.
func (c *Client) afterAllowed(id core.SoftwareID, req hostsim.ExecRequest, rep *Report) {
	now := c.clock.Now()

	c.mu.Lock()
	c.execCount[id]++
	count := c.execCount[id]
	session := c.session
	if session == "" || c.rated[id] || count <= c.threshold {
		c.mu.Unlock()
		return
	}
	week := vclock.WeekIndex(c.start, now)
	if week != c.promptWeek {
		c.promptWeek = week
		c.promptsWeek = 0
	}
	if c.promptsWeek >= c.weekBudget {
		c.mu.Unlock()
		return
	}
	c.promptsWeek++
	c.stats.RatingPrompts++
	c.mu.Unlock()

	meta := execMeta(id, req)
	if rep == nil {
		rep = new(Report)
		if c.api != nil {
			*rep, _ = c.fetch(meta, req.Critical)
		}
	}
	rating, ok := c.prompter.RateSoftware(meta, *rep)
	if !ok || c.api == nil {
		return
	}
	ctx, cancel := c.bounded(context.Background(), 1)
	defer cancel()
	if _, err := c.api.Vote(ctx, session, meta, rating); err == nil {
		c.mu.Lock()
		c.rated[id] = true
		c.stats.RatingsSubmitted++
		c.mu.Unlock()
	}
}

// ExecCount returns how many allowed executions the client has seen for
// an executable.
func (c *Client) ExecCount(id core.SoftwareID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execCount[id]
}
