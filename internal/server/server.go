// Package server implements the reputation system's server side (§3.2):
// account registration with e-mail activation and anti-automation
// challenges, session login, software lookup, voting with the one-vote
// rule, comment remarks driving trust factors, the 24-hour aggregation
// job that turns votes into published software and vendor scores, a
// bootstrap path for seeding the database (§2.1), expert feeds (§4.2)
// and a minimal HTML web view.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/vclock"
)

// Config configures New.
type Config struct {
	// Store is the persistence layer; required.
	Store *repo.Store
	// Clock is the time source; nil selects the system clock.
	Clock vclock.Clock
	// EmailPepper is the secret string concatenated with e-mail
	// addresses before hashing (§2.2). An empty pepper degrades to the
	// brute-forceable plain hash, which experiment E10 demonstrates.
	EmailPepper string
	// RequireCaptcha gates registration behind the CAPTCHA challenge.
	RequireCaptcha bool
	// PuzzleDifficulty enables hash-preimage client puzzles at
	// registration when > 0 (§5 future work).
	PuzzleDifficulty int
	// Aggregation selects the score aggregation policy; nil selects
	// core.DefaultAggregationPolicy. (A pointer, so that the all-false
	// unweighted ablation is expressible.)
	Aggregation *core.AggregationPolicy
	// MaxVotesPerUserPerDay throttles vote submission per account;
	// 0 means unlimited. The one-vote-per-software rule always applies.
	MaxVotesPerUserPerDay int
	// Mailer delivers activation tokens; nil selects an in-memory
	// mailer (retrievable via the returned server's Mailer method).
	Mailer Mailer
	// UsePseudonyms replaces usernames with stable pseudonyms in every
	// published view (§5 future work).
	UsePseudonyms bool
	// ModerateComments holds every new comment for administrator
	// approval before publication — §2.1's third mitigation: "one or
	// more administrators keeping track of all ratings and comments
	// going into the system, verifying the validity and quality of the
	// comments prior to allowing other users to view them".
	ModerateComments bool
	// MaxSignupsPerIPPerDay throttles registrations per source address
	// (§5: "relying on the IP address"); 0 disables. Addresses are kept
	// hashed and in memory only — nothing about them reaches the store,
	// preserving the §2.2 no-IPs rule.
	MaxSignupsPerIPPerDay int
	// RequestTimeout bounds each HTTP request's handler time; expired
	// requests answer 503 so clients retry elsewhere in time. 0
	// disables the per-request deadline.
	RequestTimeout time.Duration
	// MaxInflight caps concurrently served requests; excess requests
	// are shed with 429 + Retry-After instead of queueing. 0 disables
	// the cap. With AdmissionControl set it bounds the adaptive limit
	// instead (admission.Config.MaxLimit), unless Admission overrides
	// it explicitly.
	MaxInflight int
	// AdmissionControl replaces the static MaxInflight cap with the
	// adaptive, priority-aware admission layer (internal/admission):
	// AIMD concurrency limiting from observed handler latency, deadline
	// queues per priority class, per-principal token buckets, and the
	// brownout ladder.
	AdmissionControl bool
	// Admission tunes the admission controller when AdmissionControl is
	// set; zero fields select the package defaults. The controller runs
	// on the wall clock regardless of Config.Clock — handler latency is
	// a real-time quantity — unless Admission.Clock overrides it.
	Admission admission.Config
	// ShedRetryAfter is the Retry-After hint attached to shed
	// responses; 0 defaults to one second.
	ShedRetryAfter time.Duration
	// Replica starts the server in replica role: write requests are
	// answered with a redirect to PrimaryURL, and the store is put in
	// replica mode so only replicated batches change it.
	Replica bool
	// PrimaryURL is the base URL of the primary, advertised in
	// redirects and /healthz while in replica role.
	PrimaryURL string
	// Publisher, when set, mounts the WAL-shipping endpoints
	// (/repl/snapshot, /repl/wal) for replicas to pull from.
	Publisher ReplicationHandlers
	// ReplicaTracker, when set, feeds per-replica progress into
	// /replstatus (the publisher implements it).
	ReplicaTracker ReplicaTracker
	// ReplicaSource, when set on a replica, reports replication lag for
	// /healthz (the replication puller implements it).
	ReplicaSource ReplicaSource
	// ReportCacheEntries sizes the lookup report cache: 0 selects
	// repcache.DefaultEntries, a negative value disables caching.
	ReportCacheEntries int
	// DisableBinary restricts the server to the XML protocol: binary
	// requests answer 415 unsupported-media and /healthz advertises
	// "xml". It exists to stand in for a pre-binary deployment during a
	// mixed-version rollout (and in the compat tests).
	DisableBinary bool
	// Telemetry, when set, is the metric registry the server registers
	// into; nil creates a private one. The daemon passes a shared
	// registry so process-level series (build info, uptime) and the
	// server's families land on one /metrics page.
	Telemetry *telemetry.Registry
	// DisableTelemetry removes serve's observation step and the
	// /metrics and /trace endpoints entirely — the E24 ablation arm
	// measuring instrumentation overhead; production has no reason to
	// set it.
	DisableTelemetry bool
	// TraceEvents sizes the notable-request ring; 0 selects
	// telemetry.DefaultTraceEvents.
	TraceEvents int
	// TraceSlow is the latency at or above which a successful request
	// is recorded in the trace ring; 0 selects
	// telemetry.DefaultSlowThreshold.
	TraceSlow time.Duration
}

// Server is the reputation server. It is safe for concurrent use.
type Server struct {
	store       *repo.Store
	clock       vclock.Clock
	emailHasher *identity.EmailHasher
	tokens      *identity.TokenIssuer
	captcha     *identity.CaptchaGate
	mailer      Mailer
	cfg         Config

	// Hardening state, manipulated atomically (see harden.go).
	draining      atomic.Bool
	inflight      int64
	shed          int64
	serviceDelay  int64 // experiment hook: injected handler cost, ns
	serviceKnee   int64 // experiment hook: concurrency knee for the cost model
	delayInflight int64 // requests currently inside the injected-cost section

	// admit is the adaptive admission controller; nil when the legacy
	// static cap is in force.
	admit *admission.Controller

	// primaryURL (a string) is where a replica sends writes; the role
	// itself is the store's replica mode (see health.go).
	primaryURL atomic.Value

	// reports caches pre-encoded lookup responses; nil when disabled.
	reports *repcache.Cache

	// fencePos caches the rendered fencing headers (see epoch.go).
	fencePos atomic.Pointer[fencePosition]

	// tel owns the metric registry and trace ring; nil when
	// Config.DisableTelemetry is set (all its methods are nil-safe).
	tel *serverTelemetry

	mu        sync.Mutex
	sessions  map[string]string // session token -> username
	puzzles   map[string]int    // outstanding puzzle nonce -> difficulty
	voteDays  map[string]voteDay
	signupIPs map[string]voteDay // hashed source address -> per-day count
	feeds     map[string]*ExpertFeed
	feedGen   atomic.Uint64 // advances as a feed is created, under mu (subscribe)
	aggSched  core.AggregationSchedule
	aggPolicy core.AggregationPolicy
}

type voteDay struct {
	day   int
	votes int
}

// New creates a server over the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.ShedRetryAfter <= 0 {
		cfg.ShedRetryAfter = time.Second
	}
	policy := core.DefaultAggregationPolicy()
	if cfg.Aggregation != nil {
		policy = *cfg.Aggregation
	}
	mailer := cfg.Mailer
	if mailer == nil {
		mailer = NewMemoryMailer()
	}
	gate, err := identity.NewCaptchaGate()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	sched, err := cfg.Store.AggregationState()
	if err != nil {
		return nil, fmt.Errorf("server: load aggregation state: %w", err)
	}
	srv := &Server{
		store:       cfg.Store,
		clock:       cfg.Clock,
		emailHasher: identity.NewEmailHasher(cfg.EmailPepper),
		tokens:      identity.NewTokenIssuer(0),
		captcha:     gate,
		mailer:      mailer,
		cfg:         cfg,
		sessions:    make(map[string]string),
		puzzles:     make(map[string]int),
		voteDays:    make(map[string]voteDay),
		signupIPs:   make(map[string]voteDay),
		feeds:       make(map[string]*ExpertFeed),
		aggSched:    sched,
		aggPolicy:   policy,
	}
	srv.primaryURL.Store(cfg.PrimaryURL)
	if cfg.AdmissionControl {
		ac := cfg.Admission
		if ac.MaxLimit <= 0 && cfg.MaxInflight > 0 {
			ac.MaxLimit = cfg.MaxInflight
		}
		srv.admit = admission.New(ac)
	}
	if cfg.ReportCacheEntries >= 0 {
		srv.reports = repcache.New(cfg.ReportCacheEntries)
	}
	if cfg.Replica {
		cfg.Store.DB().SetReplicaMode(true)
	}
	// Replication applies batches underneath the server; attribute each
	// one to the cached reports it can affect.
	cfg.Store.DB().SetApplyHook(srv.onReplicatedBatch)
	if !cfg.DisableTelemetry {
		reg := cfg.Telemetry
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		srv.tel = newServerTelemetry(srv, reg, cfg.TraceEvents, cfg.TraceSlow)
	}
	return srv, nil
}

// onReplicatedBatch invalidates cached reports affected by a batch the
// replication tier applied (or by a snapshot restore, which arrives as
// an op-less batch). It runs with the store's write lock held, so it
// only performs read transactions.
func (s *Server) onReplicatedBatch(b storedb.Batch) {
	if s.reports == nil {
		return
	}
	imp := repo.BatchImpact(b)
	if imp.All {
		s.reports.InvalidateAll()
		return
	}
	drop := func(ids []core.SoftwareID, err error) bool {
		if err != nil {
			// Can't resolve the impact precisely; be safe.
			s.reports.InvalidateAll()
			return false
		}
		for _, id := range ids {
			s.reports.Invalidate(reportOwner(id))
		}
		return true
	}
	for _, id := range imp.Software {
		s.reports.Invalidate(reportOwner(id))
	}
	for _, u := range imp.Users {
		// A user record change can move the author trust shown on their
		// comments; comments hang off ratings, so their rated software
		// covers every affected report.
		if !drop(s.store.SoftwareRatedBy(u)) {
			return
		}
	}
	for _, v := range imp.Vendors {
		if !drop(s.store.SoftwareByVendor(v)) {
			return
		}
	}
}

// reportOwner is the cache-ownership key of one executable's reports.
func reportOwner(id core.SoftwareID) string { return string(id[:]) }

// ReportCacheStats returns the report cache's counters (zero when the
// cache is disabled).
func (s *Server) ReportCacheStats() repcache.Stats { return s.reports.Stats() }

// Store exposes the repository for admin tooling and experiments.
func (s *Server) Store() *repo.Store { return s.store }

// Mailer exposes the activation mail channel, so simulated clients can
// read their activation tokens.
func (s *Server) Mailer() Mailer { return s.mailer }

// Now returns the server's current time.
func (s *Server) Now() time.Time { return s.clock.Now() }

// MaybeAggregate runs the aggregation job if a 24-hour period has
// elapsed since the previous run (§3.2). It reports whether a run
// happened.
func (s *Server) MaybeAggregate() (bool, error) {
	now := s.clock.Now()
	s.mu.Lock()
	due := s.aggSched.Due(now)
	s.mu.Unlock()
	if !due {
		return false, nil
	}
	if err := s.RunIncrementalAggregation(); err != nil {
		return false, err
	}
	return true, nil
}

// BootstrapEntry seeds one program into the database before launch, the
// §2.1 cold-start mitigation: "copying the information from an existing,
// more or less reliable, software rating database".
type BootstrapEntry struct {
	// Meta identifies and describes the executable.
	Meta core.SoftwareMeta
	// Score is the imported 1–10 rating.
	Score float64
	// Votes is the imported vote count, which makes novice votes "one
	// out of many, rather than the one and only".
	Votes int
	// Behaviors is the imported behaviour profile.
	Behaviors core.Behavior
}

// Bootstrap imports entries into the database and publishes their
// scores immediately.
func (s *Server) Bootstrap(entries []BootstrapEntry) error {
	now := s.clock.Now()
	var scores []core.SoftwareScore
	vendors := make(map[string][]core.SoftwareScore)
	for _, e := range entries {
		if _, err := s.store.UpsertSoftware(e.Meta, now); err != nil {
			return fmt.Errorf("server: bootstrap upsert: %w", err)
		}
		err := s.store.SetBootstrapPrior(e.Meta.ID, repo.BootstrapPrior{
			Score:     e.Score,
			Votes:     e.Votes,
			Behaviors: e.Behaviors,
		})
		if err != nil {
			return fmt.Errorf("server: bootstrap prior: %w", err)
		}
		sc := core.SoftwareScore{
			Software:   e.Meta.ID,
			Score:      e.Score,
			Votes:      e.Votes,
			Behaviors:  e.Behaviors,
			ComputedAt: now,
		}
		scores = append(scores, sc)
		if e.Meta.VendorKnown() {
			vendors[e.Meta.Vendor] = append(vendors[e.Meta.Vendor], sc)
		}
	}
	if err := s.store.SetScores(scores); err != nil {
		return fmt.Errorf("server: bootstrap scores: %w", err)
	}
	for v, list := range vendors {
		if err := s.store.SetVendorScore(core.AggregateVendor(v, list)); err != nil {
			return fmt.Errorf("server: bootstrap vendor score: %w", err)
		}
	}
	// Imported scores replace whatever reports were cached.
	s.reports.InvalidateAll()
	return nil
}

// spendVote enforces the optional per-account daily vote budget: it
// adds n to the user's votes on now's day, or refuses when that would
// exceed the budget. Vote spends one before it asks the store, so that
// concurrent votes cannot overdraw, and takes it back (n = -1) when the
// store refuses.
func (s *Server) spendVote(username string, now time.Time, n int) bool {
	if s.cfg.MaxVotesPerUserPerDay <= 0 {
		return true
	}
	day := vclock.DayIndex(vclock.Epoch, now)
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.voteDays[username]
	if d.day != day {
		d = voteDay{day: day}
	}
	if d.votes+n > s.cfg.MaxVotesPerUserPerDay || d.votes+n < 0 {
		return false
	}
	d.votes += n
	s.voteDays[username] = d
	return true
}
