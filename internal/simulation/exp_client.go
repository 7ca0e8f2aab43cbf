package simulation

import (
	"fmt"
	"strings"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/metrics"
	"softreputation/internal/policy"
	"softreputation/internal/signature"
	"softreputation/internal/vclock"
)

// The client-side experiments keep the real client package (§3.1 code)
// in the loop: callers supply a logged-in session and an API bound to a
// live HTTP server (see NewTier), and the experiments drive
// simulated hosts through the client's kernel hook.

// PromptThrottleConfig sizes E3.
type PromptThrottleConfig struct {
	Seed       int64
	Programs   int
	Weeks      int
	Threshold  int
	PerWeek    int
	RunsPerDay int
}

// PromptThrottleResult reports E3.
type PromptThrottleResult struct {
	Weeks            int
	Executions       int
	RatingPrompts    int
	MaxPromptsInWeek int
	PromptsPerWeek   []int
	InterruptionRate float64 // prompts per execution
	RatingsSubmitted int
}

// RunPromptThrottle executes E3: one heavy user runs a stable program
// set daily; the client may only ask for a rating after the §3.1
// threshold and within the weekly budget.
func RunPromptThrottle(cfg PromptThrottleConfig, session string, api *client.API, clock *vclock.Virtual) (PromptThrottleResult, error) {
	var res PromptThrottleResult
	res.Weeks = cfg.Weeks
	promptsThisWeek := 0
	weekPrompts := make([]int, cfg.Weeks)

	c := client.New(client.Config{
		API:     api,
		Session: session,
		Clock:   clock,
		Prompter: client.PrompterFuncs{
			Decide: func(core.SoftwareMeta, client.Report) bool { return true },
			Rate: func(core.SoftwareMeta, client.Report) (client.Rating, bool) {
				promptsThisWeek++
				return client.Rating{Score: 6, Comment: "weekly driver"}, true
			},
		},
		RatingPromptThreshold: cfg.Threshold,
		MaxRatingPromptsWeek:  cfg.PerWeek,
	})
	host := hostsim.NewHost("e3-host")
	host.SetHook(c)
	cat := GenerateCatalog(CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 1})
	paths := make([]string, len(cat.Items))
	for i, exe := range cat.Items {
		paths[i] = fmt.Sprintf("C:/Apps/%d.exe", i)
		host.Install(paths[i], exe)
	}

	for week := 0; week < cfg.Weeks; week++ {
		promptsThisWeek = 0
		for day := 0; day < 7; day++ {
			for run := 0; run < cfg.RunsPerDay; run++ {
				for _, p := range paths {
					if _, err := host.Exec(p, clock.Now()); err != nil {
						return res, err
					}
					res.Executions++
				}
			}
			clock.Advance(vclock.Day)
		}
		weekPrompts[week] = promptsThisWeek
		if promptsThisWeek > res.MaxPromptsInWeek {
			res.MaxPromptsInWeek = promptsThisWeek
		}
	}
	res.PromptsPerWeek = weekPrompts
	st := c.Stats()
	res.RatingPrompts = st.RatingPrompts
	res.RatingsSubmitted = st.RatingsSubmitted
	if res.Executions > 0 {
		res.InterruptionRate = float64(res.RatingPrompts) / float64(res.Executions)
	}
	return res, nil
}

// String renders E3.
func (r PromptThrottleResult) String() string {
	var b strings.Builder
	b.WriteString("E3 — rating-prompt throttle (ask after 50 executions, ≤2 prompts/week)\n")
	t := metrics.NewTable("metric", "value")
	t.AddRowf("simulated weeks", r.Weeks)
	t.AddRowf("total executions", r.Executions)
	t.AddRowf("rating prompts", r.RatingPrompts)
	t.AddRowf("max prompts in any week", r.MaxPromptsInWeek)
	t.AddRowf("ratings submitted", r.RatingsSubmitted)
	t.AddRowf("interruption rate", fmt.Sprintf("%.4f prompts/execution", r.InterruptionRate))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "prompts per week: %v\n", r.PromptsPerWeek)
	return b.String()
}

// Experiment E11 — system stability (§4.2): "we also handed them the
// ability to crash the entire system in a single mouse click". Naive
// deny-happy users crash their machines by blocking critical system
// processes; the signature-based whitelist eliminates those crashes and
// removes the prompts entirely.

// StabilityResult reports E11.
type StabilityResult struct {
	Hosts             int
	NaiveCrashes      int
	NaivePrompts      int
	WhitelistCrashes  int
	WhitelistPrompts  int
	WhitelistAutoRuns int
}

// RunStability executes E11 over the given number of hosts.
func RunStability(seed int64, hosts int) (StabilityResult, error) {
	res := StabilityResult{Hosts: hosts}
	osVendor, err := signature.NewSigner("Microsoft")
	if err != nil {
		return res, err
	}

	for _, whitelisting := range []bool{false, true} {
		for h := 0; h < hosts; h++ {
			var trust *signature.TrustStore
			if whitelisting {
				trust = signature.NewTrustStore()
				trust.RegisterKey("Microsoft", osVendor.PublicKey())
				trust.SetTrusted("Microsoft", true)
			}
			prompts := 0
			// A cautious new user who denies everything they are asked
			// about — the §4.2 hazard case.
			c := client.New(client.Config{
				Clock:      vclock.NewVirtual(vclock.Epoch),
				TrustStore: trust,
				Prompter: client.PrompterFuncs{
					Decide: func(core.SoftwareMeta, client.Report) bool {
						prompts++
						return false
					},
				},
			})
			host := hostsim.NewHost(fmt.Sprintf("host-%d", h))
			host.SetHook(c)
			hostsim.InstallStandardSystem(host, osVendor)

			for _, path := range hostsim.SystemProcessNames {
				if _, err := host.Exec(path, vclock.Epoch); err != nil {
					break // crashed host refuses further executions
				}
			}
			if whitelisting {
				res.WhitelistPrompts += prompts
				res.WhitelistAutoRuns += c.Stats().AutoAllowedSignature
				if host.Crashed() {
					res.WhitelistCrashes++
				}
			} else {
				res.NaivePrompts += prompts
				if host.Crashed() {
					res.NaiveCrashes++
				}
			}
		}
	}
	return res, nil
}

// String renders E11.
func (r StabilityResult) String() string {
	var b strings.Builder
	b.WriteString("E11 — host stability: naive denial vs signature whitelisting (§4.2)\n")
	t := metrics.NewTable("configuration", "crashed hosts", "prompts", "signature auto-allows")
	t.AddRowf("no whitelist (deny-happy user)", fmt.Sprintf("%d/%d", r.NaiveCrashes, r.Hosts), r.NaivePrompts, 0)
	t.AddRowf("trusted-vendor whitelist", fmt.Sprintf("%d/%d", r.WhitelistCrashes, r.Hosts), r.WhitelistPrompts, r.WhitelistAutoRuns)
	b.WriteString(t.String())
	return b.String()
}

// Experiment E12 — policy manager accuracy (§4.2): the corporate policy
// ("any software from trusted vendors … other software only if it has a
// rating over 7.5/10 and does not show any advertisements") is enforced
// over a catalog with converged reputation scores; decisions are
// compared with the ground-truth intent (legitimate software should
// run, PIS and malware should not).

// PolicyManagerResult reports E12.
type PolicyManagerResult struct {
	Programs  int
	Confusion *metrics.Confusion
	Accuracy  float64
	// FalseAllowed counts PIS/malware that slipped past the policy;
	// FalseBlocked counts legitimate software the policy stopped.
	FalseAllowed, FalseBlocked int
}

// RunPolicyManager executes E12.
func RunPolicyManager(seed int64, programs, users int) (PolicyManagerResult, error) {
	res := PolicyManagerResult{Programs: programs}
	w, err := NewWorld(WorldConfig{
		Seed:       seed,
		Catalog:    CatalogConfig{Seed: seed, Total: programs, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: programs / 10},
		Population: PopulationConfig{Seed: seed + 1, Total: users, ExpertFrac: 0.3},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	// Converge the reputation database with a well-covered vote pass.
	if _, err := w.SeedVotes(programs / 2); err != nil {
		return res, err
	}
	if err := w.Aggregate(); err != nil {
		return res, err
	}

	pol := policy.MustParse(`
allow if signed-by-trusted
allow if rating >= 7.5 and not behavior:displays-ads
default deny
`)

	res.Confusion = metrics.NewConfusion("run", "block")
	for _, exe := range w.Catalog.Items {
		sc, _, err := w.Store().GetScore(exe.ID())
		if err != nil {
			return res, err
		}
		meta := MetaOf(exe)
		ctx := policy.Context{
			Known:       sc.Votes > 0,
			VendorKnown: meta.VendorKnown(),
			Vendor:      meta.Vendor,
			Rating:      sc.Score,
			Votes:       sc.Votes,
			Behaviors:   sc.Behaviors,
		}
		decision := "block"
		if pol.Evaluate(ctx) == policy.Allow {
			decision = "run"
		}
		want := "block"
		if exe.Verdict() == core.VerdictLegitimate {
			want = "run"
		}
		res.Confusion.Add(want, decision)
		if want == "block" && decision == "run" {
			res.FalseAllowed++
		}
		if want == "run" && decision == "block" {
			res.FalseBlocked++
		}
	}
	res.Accuracy = res.Confusion.Accuracy()
	return res, nil
}

// String renders E12.
func (r PolicyManagerResult) String() string {
	var b strings.Builder
	b.WriteString("E12 — corporate policy enforcement accuracy (§4.2)\n")
	b.WriteString(r.Confusion.String())
	fmt.Fprintf(&b, "accuracy %.2f; PIS/malware slipped through: %d; legitimate blocked: %d (of %d programs)\n",
		r.Accuracy, r.FalseAllowed, r.FalseBlocked, r.Programs)
	return b.String()
}
