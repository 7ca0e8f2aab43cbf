package simulation

import (
	"fmt"
	"strings"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/metrics"
	"softreputation/internal/server"
)

// Experiment E1 — the deployment claim of §1/§5: "The proof-of-concept
// tool has found a group of continuous users, which has rendered in
// well over 2000 rated software programs in the reputation database."
// The world seeds a community until more than 2,000 distinct programs
// carry ratings, then measures lookup behaviour at that scale.

// ScaleConfig sizes E1.
type ScaleConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int
	Lookups       int
}

// ScaleResult reports E1.
type ScaleResult struct {
	Programs       int
	Users          int
	VotesAccepted  int
	RatedPrograms  int
	LookupP50      time.Duration
	LookupP99      time.Duration
	AggregationDur time.Duration
}

// RunScale executes E1.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	var res ScaleResult
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.6, GreyFrac: 0.25, DeceitfulFrac: 0.4, Vendors: cfg.Programs / 20},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: 0.1},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	res.Programs = cfg.Programs
	res.Users = cfg.Users
	res.VotesAccepted, err = w.SeedVotes(cfg.VotesPerAgent)
	if err != nil {
		return res, err
	}

	aggStart := time.Now()
	if err := w.Aggregate(); err != nil {
		return res, err
	}
	res.AggregationDur = time.Since(aggStart)

	// Count programs with at least one vote.
	for _, exe := range w.Catalog.Items {
		if sc, ok, _ := w.Store().GetScore(exe.ID()); ok && sc.Votes > 0 {
			res.RatedPrograms++
		}
	}

	// Lookup latency over the populated database (in-process ops path,
	// which is what the client hook waits on apart from the network).
	latencies := make([]float64, 0, cfg.Lookups)
	for i := 0; i < cfg.Lookups; i++ {
		exe := w.Catalog.Items[i%len(w.Catalog.Items)]
		start := time.Now()
		if _, err := w.Server.Lookup(MetaOf(exe)); err != nil {
			return res, err
		}
		latencies = append(latencies, float64(time.Since(start)))
	}
	res.LookupP50 = time.Duration(metrics.Percentile(latencies, 50))
	res.LookupP99 = time.Duration(metrics.Percentile(latencies, 99))
	return res, nil
}

// String renders E1.
func (r ScaleResult) String() string {
	var b strings.Builder
	b.WriteString("E1 — database scale (paper: well over 2000 rated programs)\n")
	t := metrics.NewTable("metric", "value")
	t.AddRowf("programs in catalog", r.Programs)
	t.AddRowf("registered users", r.Users)
	t.AddRowf("votes accepted", r.VotesAccepted)
	t.AddRowf("programs with >=1 rating", r.RatedPrograms)
	t.AddRowf("lookup p50", r.LookupP50.String())
	t.AddRowf("lookup p99", r.LookupP99.String())
	t.AddRowf("aggregation run", r.AggregationDur.String())
	b.WriteString(t.String())
	if r.RatedPrograms > 2000 {
		b.WriteString("claim reproduced: rated programs > 2000\n")
	}
	return b.String()
}

// Experiment E4 — the §3.2 aggregation schedule: "Software ratings are
// calculated at fixed points in time (currently once in every 24-hour
// period)." The world submits votes continuously and polls
// MaybeAggregate hourly; published scores must change at most once per
// 24-hour period and the staleness of what clients see must stay below
// 24 hours plus the voting interval.

// AggregationResult reports E4.
type AggregationResult struct {
	Hours           int
	RunsHappened    int
	PublishesSeen   int
	MaxStaleness    time.Duration
	VendorScore     float64
	VendorsoftCount int
}

// RunAggregationSchedule executes E4 over the given number of simulated
// days.
func RunAggregationSchedule(seed int64, days int) (AggregationResult, error) {
	var res AggregationResult
	w, err := NewWorld(WorldConfig{
		Seed:       seed,
		Catalog:    CatalogConfig{Seed: seed, Total: 40, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: 4},
		Population: PopulationConfig{Seed: seed + 1, Total: 24 * days, ExpertFrac: 0.1},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	target := w.Catalog.Items[0]
	meta := MetaOf(target)
	var lastPublished time.Time
	var lastScoreSeen core.SoftwareScore

	res.Hours = 24 * days
	agentIdx := 0
	for hour := 0; hour < res.Hours; hour++ {
		// One fresh agent votes on the target every hour.
		if agentIdx < len(w.Agents) {
			a := w.Agents[agentIdx]
			agentIdx++
			score, behaviors := a.Observe(target)
			if _, err := w.Server.Vote(a.Session, meta, score, behaviors, ""); err != nil {
				return res, err
			}
		}
		ran, err := w.Server.MaybeAggregate()
		if err != nil {
			return res, err
		}
		if ran {
			res.RunsHappened++
		}
		// A client lookup each hour observes the published score.
		rep, err := w.Server.Lookup(meta)
		if err != nil {
			return res, err
		}
		if rep.Score.Votes != lastScoreSeen.Votes || rep.Score.Score != lastScoreSeen.Score {
			res.PublishesSeen++
			lastScoreSeen = rep.Score
			lastPublished = w.Clock.Now()
		}
		if !lastPublished.IsZero() {
			if stale := w.Clock.Now().Sub(lastPublished); stale > res.MaxStaleness {
				res.MaxStaleness = stale
			}
		}
		w.Clock.Advance(time.Hour)
	}

	// Vendor scores derive from the same runs (§3.3).
	if vs, ok, err := w.Store().GetVendorScore(meta.Vendor); err == nil && ok {
		res.VendorScore = vs.Score
		res.VendorsoftCount = vs.SoftwareCount
	}
	return res, nil
}

// String renders E4.
func (r AggregationResult) String() string {
	var b strings.Builder
	b.WriteString("E4 — 24-hour aggregation schedule\n")
	t := metrics.NewTable("metric", "value")
	t.AddRowf("simulated hours", r.Hours)
	t.AddRowf("aggregation runs", r.RunsHappened)
	t.AddRowf("published score changes seen", r.PublishesSeen)
	t.AddRowf("max staleness of published score", r.MaxStaleness.String())
	t.AddRowf("vendor score (target's vendor)", r.VendorScore)
	t.AddRowf("vendor rated programs", r.VendorsoftCount)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "expected runs ≈ days (one per 24h period): %d\n", r.Hours/24)
	return b.String()
}

// Experiment E5 — cold start and bootstrapping (§2.1): with few users,
// most programs have no votes at all; bootstrapping the database from
// an existing source removes the zero-vote mass and dampens early
// novice mis-ratings ("one out of many, rather than the one and only").

// ColdStartRow is one sweep point of E5.
type ColdStartRow struct {
	Users         int
	Bootstrap     bool
	ZeroVoteFrac  float64
	UnderThreeVox float64
	NoviceSwing   float64 // |published - true| on a bootstrapped target hit by one novice vote
}

// ColdStartResult reports E5.
type ColdStartResult struct {
	Programs int
	Rows     []ColdStartRow
}

// RunColdStart executes E5 over the given user counts.
func RunColdStart(seed int64, programs int, userCounts []int) (ColdStartResult, error) {
	res := ColdStartResult{Programs: programs}
	for _, users := range userCounts {
		for _, bootstrap := range []bool{false, true} {
			row, err := coldStartPoint(seed, programs, users, bootstrap)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func coldStartPoint(seed int64, programs, users int, bootstrap bool) (ColdStartRow, error) {
	row := ColdStartRow{Users: users, Bootstrap: bootstrap}
	w, err := NewWorld(WorldConfig{
		Seed:       seed,
		Catalog:    CatalogConfig{Seed: seed, Total: programs, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: programs / 20},
		Population: PopulationConfig{Seed: seed + 1, Total: users, ExpertFrac: 0.1},
	})
	if err != nil {
		return row, err
	}
	defer w.Close()

	if bootstrap {
		// Import scores for the whole catalog from a "more or less
		// reliable" existing database: the ground truth plus mild noise,
		// with substantial imported vote counts.
		entries := make([]server.BootstrapEntry, 0, len(w.Catalog.Items))
		for i, exe := range w.Catalog.Items {
			entries = append(entries, server.BootstrapEntry{
				Meta:      MetaOf(exe),
				Score:     clamp(exe.Profile.TrueScore+float64(i%3-1)*0.3, 1, 10),
				Votes:     30 + i%40,
				Behaviors: exe.Profile.Behaviors,
			})
		}
		if err := w.Server.Bootstrap(entries); err != nil {
			return row, err
		}
	}

	if _, err := w.SeedVotes(10); err != nil {
		return row, err
	}
	if err := w.Aggregate(); err != nil {
		return row, err
	}

	zero, underThree := 0, 0
	for _, exe := range w.Catalog.Items {
		sc, ok, err := w.Store().GetScore(exe.ID())
		if err != nil {
			return row, err
		}
		votes := 0
		if ok {
			votes = sc.Votes
		}
		if votes == 0 {
			zero++
		}
		if votes < 3 {
			underThree++
		}
	}
	total := float64(len(w.Catalog.Items))
	row.ZeroVoteFrac = float64(zero) / total
	row.UnderThreeVox = float64(underThree) / total

	// Novice-swing probe: a grey-zone program with no live votes
	// receives one wildly wrong novice vote (10 for a PIS bundle).
	// Without bootstrap that vote IS the published score; with
	// bootstrap the imported prior makes it one vote among dozens.
	var probe *hostsim.Executable
	for _, exe := range w.Catalog.Items {
		sc, ok, _ := w.Store().GetScore(exe.ID())
		liveVotes := 0
		if ok {
			liveVotes = sc.Votes
		}
		if bootstrap {
			if prior, hasPrior, _ := w.Store().GetBootstrapPrior(exe.ID()); hasPrior {
				liveVotes -= prior.Votes
			}
		}
		if exe.Verdict() == core.VerdictSpyware && liveVotes <= 0 {
			probe = exe
			break
		}
	}
	if probe != nil {
		if err := enrollOne(w, "cold-novice"); err != nil {
			return row, err
		}
		session, err := w.Server.Login("cold-novice", "pw-cold-novice")
		if err != nil {
			return row, err
		}
		if _, err := w.Server.Vote(session, MetaOf(probe), 10, 0, "great free program!!"); err != nil {
			return row, err
		}
		if err := w.Aggregate(); err != nil {
			return row, err
		}
		sc, _, _ := w.Store().GetScore(probe.ID())
		row.NoviceSwing = abs(sc.Score - probe.Profile.TrueScore)
	}
	return row, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// enrollOne registers a single extra account through the full flow.
func enrollOne(w *World, name string) error {
	mailer := w.Server.Mailer().(*server.MemoryMailer)
	email := name + "@sim.example"
	if err := w.Server.Register(server.RegisterParams{Username: name, Password: "pw-" + name, Email: email}); err != nil {
		return err
	}
	mail, ok := mailer.Read(email)
	if !ok {
		return fmt.Errorf("simulation: no activation mail for %s", name)
	}
	_, err := w.Server.Activate(mail.Token)
	return err
}

// String renders E5.
func (r ColdStartResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5 — cold start and bootstrapping (%d programs)\n", r.Programs)
	t := metrics.NewTable("users", "bootstrap", "zero-vote frac", "<3-vote frac", "novice swing")
	for _, row := range r.Rows {
		t.AddRowf(row.Users, fmt.Sprintf("%v", row.Bootstrap),
			fmt.Sprintf("%.2f", row.ZeroVoteFrac),
			fmt.Sprintf("%.2f", row.UnderThreeVox),
			fmt.Sprintf("%.2f", row.NoviceSwing))
	}
	b.WriteString(t.String())
	b.WriteString("bootstrapping removes the zero-vote mass and damps single novice votes\n")
	return b.String()
}
