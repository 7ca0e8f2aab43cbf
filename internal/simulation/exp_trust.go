package simulation

import (
	"fmt"
	"strings"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/metrics"
	"softreputation/internal/vclock"
)

// Experiment E2 — the §3.2 trust-factor growth schedule: "the maximum
// growth per week [is] 5 units. Hence, you can reach a maximum trust
// factor of 5 the first week you are a member, 10 the second week, and
// so on", with a floor of 1 and a cap of 100.

// TrustGrowthResult reports E2.
type TrustGrowthResult struct {
	// Trajectory[w] is the trust factor reachable by the end of
	// membership week w under maximal positive feedback.
	Trajectory []float64
	// WeeksToCap is the first week the factor reaches 100.
	WeeksToCap int
	// CapHeld reports that the factor never exceeded 100 and never
	// outran the weekly schedule.
	CapHeld bool
}

// RunTrustGrowth executes E2 for the given number of weeks.
func RunTrustGrowth(weeks int) TrustGrowthResult {
	res := TrustGrowthResult{CapHeld: true, WeeksToCap: -1}
	tr := core.NewTrust(vclock.Epoch)
	for w := 0; w < weeks; w++ {
		now := vclock.Epoch.Add(vclock.Week*time.Duration(w) + time.Hour)
		// A flood of positive remarks: far more than the cap admits.
		for i := 0; i < 50; i++ {
			tr = tr.ApplyRemark(true, now)
		}
		res.Trajectory = append(res.Trajectory, tr.Value)
		schedule := core.TrustWeeklyGrowthCap * float64(w+1)
		if schedule > core.TrustMax {
			schedule = core.TrustMax
		}
		if tr.Value > schedule || tr.Value > core.TrustMax {
			res.CapHeld = false
		}
		if res.WeeksToCap == -1 && tr.Value >= core.TrustMax {
			res.WeeksToCap = w
		}
	}
	return res
}

// String renders E2.
func (r TrustGrowthResult) String() string {
	var b strings.Builder
	b.WriteString("E2 — trust-factor growth schedule (max 5/week, floor 1, cap 100)\n")
	t := metrics.NewTable("week", "trust after maximal feedback", "paper schedule")
	for w, v := range r.Trajectory {
		if w < 4 || w == 9 || w == 18 || w == 19 || w == len(r.Trajectory)-1 {
			schedule := core.TrustWeeklyGrowthCap * float64(w+1)
			if schedule > core.TrustMax {
				schedule = core.TrustMax
			}
			t.AddRowf(w+1, v, schedule)
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "cap (100) first reached in membership week %d; schedule respected: %v\n",
		r.WeeksToCap+1, r.CapHeld)
	return b.String()
}

// Experiment E7 — trust weighting against slander (§2.1): a mixed
// population of experts, novices and slanderers rates the catalog; the
// weighted aggregation must track ground truth better than the
// unweighted ablation, because "as soon as more experienced users give
// contradicting votes, their opinions will carry a higher weight,
// tipping the balance in a — hopefully — more correct direction."

// TrustWeightingConfig sizes E7.
type TrustWeightingConfig struct {
	Seed          int64
	Programs      int
	Users         int
	ExpertFrac    float64
	SlandererFrac float64
	TrustWeeks    int
	VotesPerAgent int
}

// TrustWeightingResult reports E7.
type TrustWeightingResult struct {
	WeightedRMSE   float64
	UnweightedRMSE float64
	Compared       int
	ExpertTrust    float64
	NoviceTrust    float64
}

// RunTrustWeighting executes E7 twice — once per aggregation policy —
// over identical worlds, and compares the published scores' RMSE to the
// ground truth.
func RunTrustWeighting(cfg TrustWeightingConfig) (TrustWeightingResult, error) {
	var res TrustWeightingResult
	weighted, expertTrust, noviceTrust, compared, err := trustWeightingRun(cfg, true)
	if err != nil {
		return res, err
	}
	unweighted, _, _, _, err := trustWeightingRun(cfg, false)
	if err != nil {
		return res, err
	}
	res.WeightedRMSE = weighted
	res.UnweightedRMSE = unweighted
	res.Compared = compared
	res.ExpertTrust = expertTrust
	res.NoviceTrust = noviceTrust
	return res, nil
}

func trustWeightingRun(cfg TrustWeightingConfig, weighted bool) (rmse, expertTrust, noviceTrust float64, compared int, err error) {
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: cfg.ExpertFrac},
		Server:     serverConfigWithPolicy(core.AggregationPolicy{Weighted: weighted}),
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer w.Close()

	// Experts earn trust over the preparation weeks.
	if err := w.GrowExpertTrust(cfg.TrustWeeks); err != nil {
		return 0, 0, 0, 0, err
	}

	// A slanderer block votes adversarially: max for PIS, min for
	// legitimate software — §2.1's "intentionally enter misleading
	// information".
	slanderers := int(float64(len(w.Agents)) * cfg.SlandererFrac)
	for i, a := range w.Agents {
		perm := w.rng.Perm(len(w.Catalog.Items))
		n := cfg.VotesPerAgent
		if n > len(perm) {
			n = len(perm)
		}
		for _, idx := range perm[:n] {
			exe := w.Catalog.Items[idx]
			var score int
			var behaviors core.Behavior
			if i < slanderers && a.Class == Novice {
				if exe.Verdict() == core.VerdictLegitimate {
					score = core.ScoreMin
				} else {
					score = core.ScoreMax
				}
			} else {
				score, behaviors = a.Observe(exe)
			}
			if _, err := w.Server.Vote(a.Session, MetaOf(exe), score, behaviors, ""); err != nil {
				continue // duplicates from the trust-growth phase
			}
		}
	}
	if err := w.Aggregate(); err != nil {
		return 0, 0, 0, 0, err
	}
	rmse, compared, err = w.ScoreError(3)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	// Record representative trust factors.
	for _, a := range w.Agents {
		v, terr := w.Server.UserTrust(a.Name)
		if terr != nil {
			continue
		}
		if a.Class == Expert && expertTrust == 0 {
			expertTrust = v
		}
		if a.Class == Novice && noviceTrust == 0 {
			noviceTrust = v
		}
		if expertTrust != 0 && noviceTrust != 0 {
			break
		}
	}
	return rmse, expertTrust, noviceTrust, compared, nil
}

// String renders E7.
func (r TrustWeightingResult) String() string {
	var b strings.Builder
	b.WriteString("E7 — trust-weighted vs unweighted aggregation under slander\n")
	t := metrics.NewTable("policy", "RMSE vs ground truth", "programs compared")
	t.AddRowf("trust-weighted", r.WeightedRMSE, r.Compared)
	t.AddRowf("unweighted (ablation)", r.UnweightedRMSE, r.Compared)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "expert trust ≈ %.0f vs novice trust ≈ %.0f\n", r.ExpertTrust, r.NoviceTrust)
	if r.WeightedRMSE < r.UnweightedRMSE {
		fmt.Fprintf(&b, "weighting wins by %.1f%%\n",
			100*(r.UnweightedRMSE-r.WeightedRMSE)/r.UnweightedRMSE)
	}
	return b.String()
}
