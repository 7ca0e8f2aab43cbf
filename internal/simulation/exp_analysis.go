package simulation

import (
	"fmt"
	"strings"

	"softreputation/internal/analysis"
	"softreputation/internal/core"
	"softreputation/internal/metrics"
)

// Experiment E15 — the §5 runtime-analysis extension: "The results from
// such investigations could then be inserted into the reputation system
// as hard evidence on the behaviour for that specific software." In the
// budding phase, community votes are sparse and noisy; the automated
// sandbox covers everything immediately but misses covert behaviours.
// The experiment measures how well each evidence source — and their
// combination — flags PIS, where "flagging" means the information a
// client policy would act on: a low score or an invasive behaviour.

// AnalysisConfig sizes E15.
type AnalysisConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int
	SandboxRuns   int
}

// AnalysisRow is one evidence source's outcome.
type AnalysisRow struct {
	Source       string
	PISFlagged   float64 // fraction of true PIS+malware flagged
	LegitFlagged float64 // false positives on legitimate software
	Coverage     float64 // fraction of catalog with any information
}

// AnalysisResult reports E15.
type AnalysisResult struct {
	Config AnalysisConfig
	Rows   []AnalysisRow
}

// RunAnalysisEvidence executes E15.
func RunAnalysisEvidence(cfg AnalysisConfig) (AnalysisResult, error) {
	res := AnalysisResult{Config: cfg}
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.55, GreyFrac: 0.3, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: 0.1},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	// Sparse budding-phase community coverage.
	if _, err := w.SeedVotes(cfg.VotesPerAgent); err != nil {
		return res, err
	}
	if err := w.Aggregate(); err != nil {
		return res, err
	}

	// The automated lab analyses the whole catalog and publishes into
	// an expert feed.
	feed := w.Server.Feed("runtime-analysis")
	pipe := analysis.NewPipeline(analysis.NewSandbox(nil, cfg.Seed+9), feed, cfg.SandboxRuns)
	for _, exe := range w.Catalog.Items {
		pipe.Submit(exe)
	}
	if _, err := pipe.Drain(); err != nil {
		return res, err
	}

	// invasive is the behaviour set a policy would block on.
	invasive := core.BehaviorKeylogging | core.BehaviorSendsPersonalData |
		core.BehaviorDisplaysAds | core.BehaviorAltersSystemSettings

	flagsPIS := func(score float64, votes int, behaviors core.Behavior) (informed, flagged bool) {
		informed = votes > 0 || behaviors != 0
		flagged = informed && (score < 5 || behaviors&invasive != 0)
		return
	}

	type counters struct {
		pisFlagged, pisTotal     int
		legitFlagged, legitTotal int
		informed                 int
	}
	tally := map[string]*counters{"community": {}, "analysis": {}, "combined": {}}

	for _, exe := range w.Catalog.Items {
		isPIS := exe.Verdict() != core.VerdictLegitimate
		sc, _, err := w.Store().GetScore(exe.ID())
		if err != nil {
			return res, err
		}
		advice, hasAdvice := feed.Advice(exe.ID())

		evaluate := func(c *counters, informed, flagged bool) {
			if isPIS {
				c.pisTotal++
				if flagged {
					c.pisFlagged++
				}
			} else {
				c.legitTotal++
				if flagged {
					c.legitFlagged++
				}
			}
			if informed {
				c.informed++
			}
		}

		commInformed, commFlagged := flagsPIS(sc.Score, sc.Votes, sc.Behaviors)
		evaluate(tally["community"], commInformed, commFlagged)

		var anaInformed, anaFlagged bool
		if hasAdvice {
			anaInformed, anaFlagged = flagsPIS(advice.Score, 1, advice.Behaviors)
		}
		evaluate(tally["analysis"], anaInformed, anaFlagged)

		evaluate(tally["combined"], commInformed || anaInformed, commFlagged || anaFlagged)
	}

	total := float64(len(w.Catalog.Items))
	for _, source := range []string{"community", "analysis", "combined"} {
		c := tally[source]
		row := AnalysisRow{Source: source, Coverage: float64(c.informed) / total}
		if c.pisTotal > 0 {
			row.PISFlagged = float64(c.pisFlagged) / float64(c.pisTotal)
		}
		if c.legitTotal > 0 {
			row.LegitFlagged = float64(c.legitFlagged) / float64(c.legitTotal)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders E15.
func (r AnalysisResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 — runtime analysis as hard evidence (§5), %d programs, %d sandbox runs\n",
		r.Config.Programs, r.Config.SandboxRuns)
	t := metrics.NewTable("evidence source", "PIS flagged", "legit false-flagged", "coverage")
	for _, row := range r.Rows {
		t.AddRowf(row.Source,
			fmt.Sprintf("%.2f", row.PISFlagged),
			fmt.Sprintf("%.2f", row.LegitFlagged),
			fmt.Sprintf("%.2f", row.Coverage))
	}
	b.WriteString(t.String())
	b.WriteString("the sandbox covers everything on day one; the community adds judgement; combined wins\n")
	return b.String()
}
