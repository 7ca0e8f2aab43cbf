package simulation

import (
	"fmt"
	"strings"

	"softreputation/internal/attack"
	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/metrics"
	"softreputation/internal/server"
)

// Experiment E6 — vote flooding / Sybil resistance (§2.1): an attacker
// tries to push a poorly rated target program to the top by minting
// identities and ballot-stuffing. Each defence is measured by two
// numbers: how far the attacker moved the published score, and what the
// attack cost them (human CAPTCHA solves, puzzle hash evaluations,
// distinct mail addresses).

// SybilDefence labels one defence configuration.
type SybilDefence struct {
	// Name labels the row.
	Name string
	// RequireCaptcha, PuzzleDifficulty and DailyVoteBudget configure
	// the server.
	RequireCaptcha   bool
	PuzzleDifficulty int
	DailyVoteBudget  int
	// SharedMailbox forces the attacker to reuse one address, which
	// the e-mail-hash uniqueness rule then blocks.
	SharedMailbox bool
	// TrustWeeks gives the honest community that many weeks of trust
	// growth before the attack (0 = flat trust).
	TrustWeeks int
}

// DefaultSybilDefences is the E6 sweep: no defences, then each §2.1/§5
// mechanism in turn.
func DefaultSybilDefences() []SybilDefence {
	return []SybilDefence{
		{Name: "no defences"},
		{Name: "shared mailbox blocked (email hash)", SharedMailbox: true},
		{Name: "captcha (human cost)", RequireCaptcha: true},
		{Name: "client puzzles k=12 (cpu cost)", PuzzleDifficulty: 12},
		{Name: "daily vote budget 5", DailyVoteBudget: 5},
		{Name: "trust-weighted community", TrustWeeks: 8},
	}
}

// SybilRow is one defence's outcome.
type SybilRow struct {
	Defence        string
	HonestScore    float64
	AttackedScore  float64
	ScoreShift     float64
	AccountsMinted int
	HumanCost      float64
	PuzzleHashes   uint64
	VotesAccepted  int
}

// SybilConfig sizes E6.
type SybilConfig struct {
	Seed         int64
	HonestUsers  int
	HonestVotes  int // honest votes on the target
	SybilCount   int
	ExpertFrac   float64
	DefenceSweep []SybilDefence
}

// SybilResult reports E6.
type SybilResult struct {
	Rows []SybilRow
}

// RunSybil executes E6: for each defence, a fresh world, an honest
// community rating a low-quality target, then the Sybil promotion.
func RunSybil(cfg SybilConfig) (SybilResult, error) {
	var res SybilResult
	if len(cfg.DefenceSweep) == 0 {
		cfg.DefenceSweep = DefaultSybilDefences()
	}
	for _, d := range cfg.DefenceSweep {
		row, err := sybilPoint(cfg, d)
		if err != nil {
			return res, fmt.Errorf("defence %q: %w", d.Name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func sybilPoint(cfg SybilConfig, d SybilDefence) (SybilRow, error) {
	row := SybilRow{Defence: d.Name}
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: 60, LegitFrac: 0.5, GreyFrac: 0.35, Vendors: 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.HonestUsers, ExpertFrac: cfg.ExpertFrac},
		Server: server.Config{
			RequireCaptcha:        d.RequireCaptcha,
			PuzzleDifficulty:      d.PuzzleDifficulty,
			MaxVotesPerUserPerDay: d.DailyVoteBudget,
		},
	})
	if err != nil {
		return row, err
	}
	defer w.Close()

	// The target: the first grey-zone program in the catalog.
	var target = w.Catalog.Items[0]
	for _, exe := range w.Catalog.Items {
		if exe.Verdict() == core.VerdictSpyware {
			target = exe
			break
		}
	}
	meta := MetaOf(target)

	if d.TrustWeeks > 0 {
		if err := w.GrowExpertTrust(d.TrustWeeks); err != nil {
			return row, err
		}
	}

	// Honest community rates the target.
	voted := 0
	for _, a := range w.Agents {
		if voted >= cfg.HonestVotes {
			break
		}
		score, behaviors := a.Observe(target)
		if _, err := w.Server.Vote(a.Session, meta, score, behaviors, ""); err != nil {
			continue
		}
		voted++
	}
	if err := w.Aggregate(); err != nil {
		return row, err
	}
	if sc, ok, _ := w.Store().GetScore(target.ID()); ok {
		row.HonestScore = sc.Score
	}

	// The attack: mint identities and promote the target to 10.
	atk := attack.NewSybil(w.Server, "e6")
	minted, err := atk.CreateAccounts(cfg.SybilCount, !d.SharedMailbox)
	if err != nil {
		return row, err
	}
	row.AccountsMinted = minted
	accepted, _ := atk.Promote(meta)
	row.VotesAccepted = accepted
	row.HumanCost = atk.Meter.Spent()
	row.PuzzleHashes = atk.PuzzleHashes

	if err := w.Aggregate(); err != nil {
		return row, err
	}
	if sc, ok, _ := w.Store().GetScore(target.ID()); ok {
		row.AttackedScore = sc.Score
	}
	row.ScoreShift = row.AttackedScore - row.HonestScore
	return row, nil
}

// String renders E6.
func (r SybilResult) String() string {
	var b strings.Builder
	b.WriteString("E6 — Sybil / vote-flooding defences (attacker pushes a PIS target toward 10)\n")
	t := metrics.NewTable("defence", "honest", "attacked", "shift", "accounts", "votes in", "human cost", "puzzle hashes")
	for _, row := range r.Rows {
		t.AddRowf(row.Defence, row.HonestScore, row.AttackedScore, row.ScoreShift,
			row.AccountsMinted, row.VotesAccepted, row.HumanCost, fmt.Sprintf("%d", row.PuzzleHashes))
	}
	b.WriteString(t.String())
	b.WriteString("defences either shrink the shift (email hash, trust) or attach a per-account price (captcha, puzzles);\n")
	b.WriteString("the daily vote budget is orthogonal here — it throttles one account flooding many targets, not many accounts hitting one\n")
	return b.String()
}

// Experiment E8 — polymorphic hash evasion vs vendor keying (§3.3): a
// questionable vendor serves a mutated binary per download, so
// file-level reputation never accumulates; mapping ratings to the
// vendor restores the signal; stripping the vendor name to dodge that
// is itself "a signal for PIS".

// PolymorphicConfig sizes E8.
type PolymorphicConfig struct {
	Seed      int64
	Downloads int
	Raters    int
}

// PolymorphicResult reports E8.
type PolymorphicResult struct {
	Downloads            int
	DistinctIdentities   int
	MaxVotesPerIdentity  int
	FileLevelCoverage    float64 // fraction of downloads whose hash had any prior rating
	VendorScore          float64
	VendorRatedPrograms  int
	StrippedVendorSignal bool
}

// RunPolymorphic executes E8.
func RunPolymorphic(cfg PolymorphicConfig) (PolymorphicResult, error) {
	var res PolymorphicResult
	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: 20, LegitFrac: 0.8, GreyFrac: 0.2, Vendors: 5},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Raters, ExpertFrac: 0.2},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	base := buildEvasive(cfg.Seed)
	dist := attack.NewPolymorphicDistributor(base, cfg.Seed+7)

	res.Downloads = cfg.Downloads
	identities := map[core.SoftwareID]int{}
	raterIdx := 0
	for i := 0; i < cfg.Downloads; i++ {
		dl := dist.NextDownload()
		meta := MetaOf(dl)
		// The client looks the download up before running it; a hash
		// with prior votes would have told the user something.
		rep, err := w.Server.Lookup(meta)
		if err != nil {
			return res, err
		}
		if rep.Score.Votes > 0 {
			res.FileLevelCoverage++
		}
		identities[dl.ID()]++
		// Every few downloads, a community member who got burned rates
		// the *copy they received*.
		if i%4 == 0 && raterIdx < len(w.Agents) {
			a := w.Agents[raterIdx]
			raterIdx++
			score, behaviors := a.Observe(dl)
			if _, err := w.Server.Vote(a.Session, meta, score, behaviors, "bundles adware"); err != nil {
				return res, err
			}
		}
	}
	if err := w.Aggregate(); err != nil {
		return res, err
	}

	res.DistinctIdentities = len(identities)
	for _, n := range identities {
		if n > res.MaxVotesPerIdentity {
			res.MaxVotesPerIdentity = n
		}
	}
	res.FileLevelCoverage /= float64(cfg.Downloads)

	// Vendor-level view: all those scattered votes accumulate under one
	// vendor name.
	if vs, ok, _ := w.Store().GetVendorScore("EvasiveWare Ltd"); ok {
		res.VendorScore = vs.Score
		res.VendorRatedPrograms = vs.SoftwareCount
	}

	// The counter-countermeasure: stripping the vendor name makes the
	// file vendor-unknown, which the classifier treats as a PIS signal.
	stripped := buildEvasive(cfg.Seed + 1)
	strippedMeta := MetaOf(stripped)
	strippedMeta.Vendor = ""
	res.StrippedVendorSignal = !strippedMeta.VendorKnown()
	return res, nil
}

func buildEvasive(seed int64) *hostsim.Executable {
	return hostsim.Build(hostsim.Spec{
		FileName: "free-screensaver.exe",
		Vendor:   "EvasiveWare Ltd",
		Version:  "3.1",
		Seed:     seed,
		Profile: hostsim.Profile{
			Category:   core.CategoryUnsolicited,
			Behaviors:  core.BehaviorDisplaysAds | core.BehaviorBundledSoftware,
			Deceitful:  true,
			HarmPerRun: 1,
			TrueScore:  2.5,
		},
	})
}

// String renders E8.
func (r PolymorphicResult) String() string {
	var b strings.Builder
	b.WriteString("E8 — polymorphic re-hashing vs vendor-level reputation (§3.3)\n")
	t := metrics.NewTable("metric", "value")
	t.AddRowf("downloads served", r.Downloads)
	t.AddRowf("distinct content hashes", r.DistinctIdentities)
	t.AddRowf("max votes on any single hash", r.MaxVotesPerIdentity)
	t.AddRowf("file-level lookup coverage", fmt.Sprintf("%.2f", r.FileLevelCoverage))
	t.AddRowf("vendor-level score", r.VendorScore)
	t.AddRowf("vendor programs carrying votes", r.VendorRatedPrograms)
	t.AddRowf("stripped vendor flagged as PIS signal", fmt.Sprintf("%v", r.StrippedVendorSignal))
	b.WriteString(t.String())
	b.WriteString("file-keyed reputation never accumulates on mutants; vendor keying restores the warning\n")
	return b.String()
}
