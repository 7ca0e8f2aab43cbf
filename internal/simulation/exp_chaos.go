package simulation

import (
	"context"
	"fmt"
	"strings"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/metrics"
	"softreputation/internal/policy"
	"softreputation/internal/resilience"
)

// Experiment E17 — chaos: decision quality under server outages. Hosts
// keep executing software while the client↔server path degrades
// (flaky drops, load-shedding 503s, a full partition), and three
// client builds are compared: no resilience at all, retry-only, and
// the full stack (retry + circuit breaker + TTL'd report cache served
// stale). The §4.2 requirement under test: the exec hook holds a
// frozen process on every decision, so a dead server must cost neither
// prompts nor seconds.

// ChaosConfig sizes E17.
type ChaosConfig struct {
	Seed          int64
	Programs      int // catalog size
	Users         int
	VotesPerAgent int
	HostPrograms  int // programs each host executes during the outage
}

// The resilience settings under test: the retry policy, the circuit
// breaker, and the degraded-mode cache TTL. The fault window starts
// after the cached entries have expired, so every hit is a stale serve.
const (
	chaosRetryAttempts    = 3
	chaosRetryBase        = 500 * time.Millisecond
	chaosBreakerThreshold = 3
	chaosBreakerCooldown  = 30 * time.Second
	chaosCacheTTL         = time.Hour
)

// chaosProfile is one outage shape: the fault on the client->p link.
type chaosProfile struct {
	name  string
	fault resilience.Fault
}

// chaosProfiles are the outage shapes under test.
var chaosProfiles = []chaosProfile{
	{"flaky (drop 1/2)", resilience.Fault{EveryN: 2, Latency: 100 * time.Millisecond}},
	{"overload (503+Retry-After)", resilience.Fault{RetryAfter: 2 * time.Second}},
	{"partition (100% outage)", resilience.Fault{Latency: time.Second}},
}

// ChaosRow is one (profile, mechanism) cell of the E17 table.
type ChaosRow struct {
	Profile   string
	Mechanism string
	// Decisions is how many executions were decided during the outage.
	Decisions int
	// Prompts is how many of them interrupted the user.
	Prompts    int
	PromptRate float64
	// WrongRate is the fraction of decisions disagreeing with ground
	// truth (legitimate software blocked, or PIS/malware allowed).
	WrongRate float64
	// AvgLatency is the mean virtual time a process stayed frozen
	// waiting for its decision.
	AvgLatency time.Duration
	// StaleServes / CacheHits / FailClosedDenies are degraded-mode
	// client counters; BreakerOpens counts circuit trips.
	StaleServes      int
	CacheHits        int
	FailClosedDenies int
	BreakerOpens     int
	// ServerRequests counts HTTP requests issued during the outage —
	// what the retry storm or the breaker's fast-fails did to load.
	ServerRequests int
}

// ChaosResult reports E17.
type ChaosResult struct {
	Config ChaosConfig
	Rows   []ChaosRow
}

// chaosMechanisms names the three client builds under comparison.
var chaosMechanisms = []string{"none", "retry", "retry+breaker+cache"}

// RunChaos executes E17: one world with converged scores, then a
// (profile × mechanism) grid of outage runs over real HTTP with the
// fault injector between client and server.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	res := ChaosResult{Config: cfg}
	t, err := NewTier(TierConfig{
		Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, ExpertFrac: 0.3,
		VotesPerAgent: cfg.VotesPerAgent,
	})
	if err != nil {
		return res, err
	}
	defer t.Close()

	// The decision policy: published reports decide silently either
	// way; only unknown software reaches the user. This is what makes
	// the cache worth measuring — a served report is a silent decision.
	pol := policy.MustParse(`
allow if known and rating >= 5.5
deny if known and rating < 5.5
default ask
`)

	// Every run executes the same slice of the catalog, so the grid
	// cells differ only in outage shape and client build.
	programs := cfg.HostPrograms
	if programs > len(t.World.Catalog.Items) {
		programs = len(t.World.Catalog.Items)
	}
	items := t.World.Catalog.Items[:programs]

	for _, prof := range chaosProfiles {
		for _, mech := range chaosMechanisms {
			row, err := runChaosCell(cfg, t, pol, items, prof, mech)
			if err != nil {
				return res, fmt.Errorf("chaos %s/%s: %w", prof.name, mech, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// runChaosCell runs one (profile, mechanism) cell: warm up over a
// healthy network, degrade the client->p link, let the cache expire,
// then decide every program through the fault.
func runChaosCell(cfg ChaosConfig, t *Tier, pol *policy.Policy, items []*hostsim.Executable, prof chaosProfile, mech string) (ChaosRow, error) {
	row := ChaosRow{Profile: prof.name, Mechanism: mech}
	clock := t.World.Clock

	// The server-request count is the net's, taken on the client's side
	// of the fault, so it includes the sends the fault stops.
	api := client.NewAPI(t.Endpoints()[0], t.Client("client", nil))

	var breaker *resilience.Breaker
	switch mech {
	case "retry":
		api.WithResilience(resilience.NewExecutor(resilience.Policy{
			MaxAttempts: chaosRetryAttempts, BaseDelay: chaosRetryBase, Multiplier: 2,
		}, nil, clock, cfg.Seed))
	case "retry+breaker+cache":
		breaker = resilience.NewBreaker(chaosBreakerThreshold, chaosBreakerCooldown, clock)
		api.WithResilience(resilience.NewExecutor(resilience.Policy{
			MaxAttempts: chaosRetryAttempts, BaseDelay: chaosRetryBase, Multiplier: 2,
		}, breaker, clock, cfg.Seed))
	}

	// The prompted user answers by ground truth; what the experiment
	// measures is how often they are interrupted at all.
	verdicts := make(map[core.SoftwareID]core.Verdict, len(items))
	for _, exe := range items {
		verdicts[exe.ID()] = exe.Verdict()
	}
	ccfg := client.Config{
		API:    api,
		Clock:  clock,
		Policy: pol,
		Prompter: client.PrompterFuncs{
			Decide: func(meta core.SoftwareMeta, rep client.Report) bool {
				return verdicts[meta.ID] == core.VerdictLegitimate
			},
		},
	}
	if mech == "retry+breaker+cache" {
		ccfg.CacheTTL = chaosCacheTTL
		ccfg.OnLookupFailure = client.FailClosed
	}
	c := client.New(ccfg)

	host := hostsim.NewHost("chaos-" + mech)
	paths := make([]string, len(items))
	metas := make([]core.SoftwareMeta, len(items))
	for i, exe := range items {
		paths[i] = fmt.Sprintf("C:/Programs/%d-%s", i, MetaOf(exe).FileName)
		host.Install(paths[i], exe)
		metas[i] = MetaOf(exe)
	}
	host.SetHook(c)

	// Healthy phase: warm the cache (a no-op for the cacheless builds),
	// then install the fault and age past the TTL, so prefetched entries
	// are already expired when the outage hits.
	if _, err := c.Prefetch(context.Background(), metas); err != nil {
		return row, err
	}
	healthyRequests := t.net.Sends("client", "p")
	t.net.Degrade("client", "p", prof.fault)
	defer t.net.HealAll()
	clock.Advance(2*chaosCacheTTL + time.Minute)

	// Outage phase: every program wants to run once.
	for i, p := range paths {
		before := clock.Now()
		execRes, err := host.Exec(p, clock.Now())
		if err != nil {
			return row, err
		}
		row.Decisions++
		row.AvgLatency += clock.Now().Sub(before)
		wantAllow := verdicts[items[i].ID()] == core.VerdictLegitimate
		if execRes.Allowed != wantAllow {
			row.WrongRate++
		}
	}

	st := c.Stats()
	row.Prompts = st.PromptsShown
	row.StaleServes = st.StaleServes
	row.CacheHits = st.CacheHits
	row.FailClosedDenies = st.FailClosedDenies
	row.ServerRequests = int(t.net.Sends("client", "p") - healthyRequests)
	if breaker != nil {
		row.BreakerOpens = breaker.Stats().Opens
	}
	if row.Decisions > 0 {
		row.PromptRate = float64(row.Prompts) / float64(row.Decisions)
		row.WrongRate /= float64(row.Decisions)
		row.AvgLatency /= time.Duration(row.Decisions)
	}
	return row, nil
}

// String renders E17.
func (r ChaosResult) String() string {
	var b strings.Builder
	b.WriteString("E17 — chaos: decision quality under server outages (§4.2)\n")
	t := metrics.NewTable("outage profile", "client build", "decisions", "prompts", "prompt rate",
		"wrong rate", "avg decision latency", "stale serves", "breaker opens", "server reqs")
	for _, row := range r.Rows {
		t.AddRowf(row.Profile, row.Mechanism, row.Decisions, row.Prompts,
			fmt.Sprintf("%.2f", row.PromptRate),
			fmt.Sprintf("%.2f", row.WrongRate),
			row.AvgLatency.String(),
			row.StaleServes, row.BreakerOpens, row.ServerRequests)
	}
	b.WriteString(t.String())
	b.WriteString("latency is virtual time the process stayed frozen awaiting its decision;\n")
	b.WriteString("the full build answers outages from the stale cache: no prompts, no waiting.\n")
	return b.String()
}
