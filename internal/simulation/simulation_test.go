package simulation

import (
	"strings"
	"testing"

	"softreputation/internal/client"
	"softreputation/internal/core"
)

func TestGenerateCatalogDeterministic(t *testing.T) {
	cfg := CatalogConfig{Seed: 3, Total: 100, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: 10}
	a := GenerateCatalog(cfg)
	b := GenerateCatalog(cfg)
	if len(a.Items) != 100 || len(b.Items) != 100 {
		t.Fatalf("catalog sizes %d/%d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i].ID() != b.Items[i].ID() {
			t.Fatalf("item %d differs between identical seeds", i)
		}
	}
}

func TestGenerateCatalogMix(t *testing.T) {
	cat := GenerateCatalog(CatalogConfig{Seed: 5, Total: 2000, LegitFrac: 0.6, GreyFrac: 0.25, DeceitfulFrac: 0.4, Vendors: 100})
	counts := cat.CountByVerdict()
	total := float64(len(cat.Items))
	if f := float64(counts[core.VerdictLegitimate]) / total; f < 0.5 || f > 0.7 {
		t.Fatalf("legit fraction = %.2f", f)
	}
	if f := float64(counts[core.VerdictSpyware]) / total; f < 0.17 || f > 0.33 {
		t.Fatalf("grey fraction = %.2f", f)
	}
	// Ground-truth scores track the verdicts.
	for _, exe := range cat.Items[:200] {
		ts := exe.Profile.TrueScore
		switch exe.Verdict() {
		case core.VerdictLegitimate:
			if ts < 6 {
				t.Fatalf("legit true score %v", ts)
			}
		case core.VerdictMalware:
			if ts > 3 {
				t.Fatalf("malware true score %v", ts)
			}
		}
	}
	// Deceit only occurs outside the legitimate class.
	for _, exe := range cat.Items {
		if exe.Profile.Deceitful && exe.Verdict() == core.VerdictLegitimate {
			t.Fatal("legitimate software marked deceitful")
		}
	}
}

func TestAgentObservation(t *testing.T) {
	cat := GenerateCatalog(CatalogConfig{Seed: 7, Total: 50, LegitFrac: 0.5, GreyFrac: 0.3, Vendors: 5})
	expert := NewAgent("e", Expert, 1)
	novice := NewAgent("n", Novice, 2)

	var expertErr, noviceErr float64
	n := 0
	for _, exe := range cat.Items {
		es, _ := expert.Observe(exe)
		ns, _ := novice.Observe(exe)
		expertErr += abs(float64(es) - exe.Profile.TrueScore)
		noviceErr += abs(float64(ns) - exe.Profile.TrueScore)
		n++
		if es < core.ScoreMin || es > core.ScoreMax || ns < core.ScoreMin || ns > core.ScoreMax {
			t.Fatal("observation out of score range")
		}
	}
	if expertErr >= noviceErr {
		t.Fatalf("expert mean error %.2f not below novice %.2f", expertErr/float64(n), noviceErr/float64(n))
	}
	if Expert.String() != "expert" || Novice.String() != "novice" {
		t.Fatal("class names wrong")
	}
}

func TestWorldEnrollsPopulation(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Seed:       11,
		Catalog:    CatalogConfig{Seed: 11, Total: 20, LegitFrac: 0.5, GreyFrac: 0.3, Vendors: 4},
		Population: PopulationConfig{Seed: 12, Total: 15, ExpertFrac: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, err := w.Store().Stats()
	if err != nil || st.Users != 15 {
		t.Fatalf("enrolled users = %d, %v", st.Users, err)
	}
	for _, a := range w.Agents {
		if a.Session == "" {
			t.Fatalf("agent %s has no session", a.Name)
		}
	}
	accepted, err := w.SeedVotes(5)
	if err != nil || accepted != 75 {
		t.Fatalf("seeded votes = %d, %v", accepted, err)
	}
	if err := w.Aggregate(); err != nil {
		t.Fatal(err)
	}
	rmse, compared, err := w.ScoreError(1)
	if err != nil || compared == 0 {
		t.Fatalf("ScoreError: %v, %d", err, compared)
	}
	if rmse <= 0 || rmse > 6 {
		t.Fatalf("rmse = %v", rmse)
	}
}

func TestTable1CoversAllCellsAndMatchesPaperShape(t *testing.T) {
	res := RunTable1(CatalogConfig{Seed: 1, Total: 2400, LegitFrac: 0.6, GreyFrac: 0.25, DeceitfulFrac: 0.4, Vendors: 120})
	if res.Total != 2400 {
		t.Fatalf("total = %d", res.Total)
	}
	sum := 0
	for cell := core.CategoryLegitimate; cell <= core.CategoryParasite; cell++ {
		n := res.Counts[cell]
		if n == 0 {
			t.Fatalf("cell %v empty — the matrix must be fully populated", cell)
		}
		sum += n
	}
	if sum != res.Total {
		t.Fatalf("cells sum to %d, want %d", sum, res.Total)
	}
	out := res.String()
	for _, name := range []string{"legitimate software", "trojans", "parasites", "semi-parasites", "double agents"} {
		if !strings.Contains(out, name) {
			t.Fatalf("render missing %q:\n%s", name, out)
		}
	}
}

func TestTable2EliminatesGreyZone(t *testing.T) {
	res := RunTable2(CatalogConfig{Seed: 1, Total: 1200, LegitFrac: 0.6, GreyFrac: 0.25, DeceitfulFrac: 0.4, Vendors: 60})
	for cell, n := range res.After {
		if cell.Consent() == core.ConsentMedium && n != 0 {
			t.Fatalf("medium-consent cell %v still holds %d programs", cell, n)
		}
	}
	if res.MediumBefore == 0 {
		t.Fatal("no grey zone generated")
	}
	if res.ToHigh+res.ToLow != res.MediumBefore {
		t.Fatalf("grey split %d+%d != %d", res.ToHigh, res.ToLow, res.MediumBefore)
	}
	if res.ToHigh == 0 || res.ToLow == 0 {
		t.Fatal("transform must send some software each way")
	}
	if !strings.Contains(res.String(), "medium-consent programs remaining: 0") {
		t.Fatalf("render: %s", res.String())
	}
}

func TestScaleSmall(t *testing.T) {
	res, err := RunScale(ScaleConfig{Seed: 2, Programs: 120, Users: 40, VotesPerAgent: 10, Lookups: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.VotesAccepted != 400 {
		t.Fatalf("votes = %d", res.VotesAccepted)
	}
	if res.RatedPrograms == 0 || res.RatedPrograms > 120 {
		t.Fatalf("rated programs = %d", res.RatedPrograms)
	}
	if res.LookupP50 <= 0 {
		t.Fatal("lookup latency not measured")
	}
	_ = res.String()
}

func TestAggregationScheduleExperiment(t *testing.T) {
	res, err := RunAggregationSchedule(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One run per 24-hour period: 3 days -> 3 runs (the first fires
	// immediately, then every 24h).
	if res.RunsHappened != 3 {
		t.Fatalf("aggregation runs = %d, want 3", res.RunsHappened)
	}
	if res.PublishesSeen == 0 || res.PublishesSeen > res.RunsHappened {
		t.Fatalf("publishes = %d with %d runs", res.PublishesSeen, res.RunsHappened)
	}
	_ = res.String()
}

func TestColdStartBootstrapHelps(t *testing.T) {
	res, err := RunColdStart(5, 150, []int{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[[2]interface{}]ColdStartRow{}
	for _, row := range res.Rows {
		byKey[[2]interface{}{row.Users, row.Bootstrap}] = row
	}
	// Without bootstrap, few users leave most programs unrated; with
	// bootstrap nothing is unrated.
	plain5 := byKey[[2]interface{}{5, false}]
	boot5 := byKey[[2]interface{}{5, true}]
	if plain5.ZeroVoteFrac < 0.3 {
		t.Fatalf("tiny community zero-vote frac = %.2f, expected a large gap", plain5.ZeroVoteFrac)
	}
	if boot5.ZeroVoteFrac != 0 {
		t.Fatalf("bootstrapped zero-vote frac = %.2f, want 0", boot5.ZeroVoteFrac)
	}
	// The single wrong novice vote swings an unseeded program fully,
	// a seeded one barely.
	if !(boot5.NoviceSwing < plain5.NoviceSwing) {
		t.Fatalf("novice swing: bootstrap %.2f vs plain %.2f", boot5.NoviceSwing, plain5.NoviceSwing)
	}
	// More users shrink the zero-vote mass.
	plain30 := byKey[[2]interface{}{30, false}]
	if plain30.ZeroVoteFrac >= plain5.ZeroVoteFrac {
		t.Fatalf("more users did not improve coverage: %.2f vs %.2f", plain30.ZeroVoteFrac, plain5.ZeroVoteFrac)
	}
	_ = res.String()
}

func TestTrustGrowthExperiment(t *testing.T) {
	res := RunTrustGrowth(25)
	if !res.CapHeld {
		t.Fatal("trust outran the schedule")
	}
	// 100/5 = 20 weeks to the cap (week index 19).
	if res.WeeksToCap != 19 {
		t.Fatalf("weeks to cap = %d, want 19", res.WeeksToCap)
	}
	if res.Trajectory[0] != 5 || res.Trajectory[1] != 10 {
		t.Fatalf("first weeks = %v", res.Trajectory[:2])
	}
	_ = res.String()
}

func TestTrustWeightingBeatsUnweighted(t *testing.T) {
	res, err := RunTrustWeighting(TrustWeightingConfig{
		Seed: 9, Programs: 60, Users: 60,
		ExpertFrac: 0.15, SlandererFrac: 0.25,
		TrustWeeks: 6, VotesPerAgent: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared == 0 {
		t.Fatal("nothing compared")
	}
	if res.ExpertTrust <= res.NoviceTrust {
		t.Fatalf("expert trust %v not above novice %v", res.ExpertTrust, res.NoviceTrust)
	}
	if res.WeightedRMSE >= res.UnweightedRMSE {
		t.Fatalf("weighted RMSE %.3f not below unweighted %.3f", res.WeightedRMSE, res.UnweightedRMSE)
	}
	_ = res.String()
}

func TestSybilDefencesExperiment(t *testing.T) {
	res, err := RunSybil(SybilConfig{
		Seed: 4, HonestUsers: 40, HonestVotes: 25, SybilCount: 60, ExpertFrac: 0.2,
		DefenceSweep: []SybilDefence{
			{Name: "no defences"},
			{Name: "shared mailbox", SharedMailbox: true},
			{Name: "captcha", RequireCaptcha: true},
			{Name: "puzzles", PuzzleDifficulty: 8},
			{Name: "trust", TrustWeeks: 6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]SybilRow{}
	for _, row := range res.Rows {
		rows[row.Defence] = row
	}

	base := rows["no defences"]
	if base.AccountsMinted != 60 || base.ScoreShift < 2 {
		t.Fatalf("undefended attack too weak: %+v", base)
	}
	// E-mail uniqueness against a single mailbox collapses the attack.
	shared := rows["shared mailbox"]
	if shared.AccountsMinted != 1 || shared.ScoreShift > base.ScoreShift/4 {
		t.Fatalf("shared mailbox row: %+v", shared)
	}
	// CAPTCHA and puzzles do not stop a paying attacker but price it.
	if rows["captcha"].HumanCost < 60 {
		t.Fatalf("captcha cost = %v", rows["captcha"].HumanCost)
	}
	if rows["puzzles"].PuzzleHashes < 60*64 {
		t.Fatalf("puzzle hashes = %v", rows["puzzles"].PuzzleHashes)
	}
	// Trust weighting shrinks the shift: sybils vote with trust 1 while
	// the honest community has earned weight.
	if rows["trust"].ScoreShift >= base.ScoreShift {
		t.Fatalf("trust weighting did not reduce the shift: %+v vs %+v", rows["trust"], base)
	}
	_ = res.String()
}

func TestPolymorphicExperiment(t *testing.T) {
	res, err := RunPolymorphic(PolymorphicConfig{Seed: 6, Downloads: 120, Raters: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctIdentities != res.Downloads {
		t.Fatalf("identities = %d of %d downloads", res.DistinctIdentities, res.Downloads)
	}
	if res.FileLevelCoverage != 0 {
		t.Fatalf("file-level coverage = %.2f, want 0 (every download is a fresh hash)", res.FileLevelCoverage)
	}
	if res.VendorRatedPrograms == 0 {
		t.Fatal("vendor-level aggregation found no rated programs")
	}
	if res.VendorScore >= 6 {
		t.Fatalf("vendor score = %.1f, expected the community to sink it", res.VendorScore)
	}
	if !res.StrippedVendorSignal {
		t.Fatal("stripped vendor must register as a PIS signal")
	}
	_ = res.String()
}

func TestCountermeasureComparison(t *testing.T) {
	res, err := RunCountermeasures(CountermeasureConfig{
		Seed: 8, Programs: 80, Users: 50, Days: 30, ExecutionsPerDay: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]CountermeasureRow{}
	for _, row := range res.Rows {
		rows[row.Setup] = row
	}
	none := rows["none"]
	av := rows["anti-virus"]
	as := rows["anti-spyware"]
	rep := rows["reputation"]
	both := rows["reputation+av"]

	// Shape of §4.3: every protection beats none on harm; AV covers
	// only malware; anti-spyware reaches part of the grey zone; the
	// reputation system informs the grey zone far better than scanners;
	// the combination is at least as good as either alone.
	if !(av.Harm < none.Harm && rep.Harm < none.Harm) {
		t.Fatalf("protections did not reduce harm: none=%.1f av=%.1f rep=%.1f", none.Harm, av.Harm, rep.Harm)
	}
	if av.GreyBlocked != 0 {
		t.Fatalf("anti-virus blocked grey zone: %.2f", av.GreyBlocked)
	}
	if !(as.GreyBlocked > 0) {
		t.Fatalf("anti-spyware blocked no grey zone")
	}
	if rep.GreyInformedFrac <= 0.3 {
		t.Fatalf("reputation grey-zone information = %.2f", rep.GreyInformedFrac)
	}
	if av.GreyInformedFrac != 0 {
		t.Fatalf("scanner-only setup should give no grey-zone information, got %.2f", av.GreyInformedFrac)
	}
	if both.Harm > av.Harm || both.Harm > rep.Harm {
		t.Fatalf("combined harm %.1f worse than components (av %.1f, rep %.1f)", both.Harm, av.Harm, rep.Harm)
	}
	if none.LegitBlocked != 0 {
		t.Fatal("the no-protection setup blocked something")
	}
	_ = res.String()
}

func TestBreachExperiment(t *testing.T) {
	res, err := RunBreach(10, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPAddressesInDump != 0 {
		t.Fatal("schema leaked IPs")
	}
	if res.EmailsCrackedPlain != res.Users {
		t.Fatalf("plain-hash ablation cracked %d/%d", res.EmailsCrackedPlain, res.Users)
	}
	if res.EmailsCrackedPepper != 0 {
		t.Fatalf("peppered deployment cracked %d, want 0", res.EmailsCrackedPepper)
	}
	if res.HostLinkage {
		t.Fatal("host linkage must be impossible")
	}
	if res.RatedListsExposed == 0 {
		t.Fatal("pseudonymous rating lists should be counted")
	}
	_ = res.String()
}

func TestAnonymityExperiment(t *testing.T) {
	res, err := RunAnonymity(12, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSawClient {
		t.Fatal("client identity leaked to the exit")
	}
	if res.OnionPerOp <= 0 || res.DirectPerOp <= 0 {
		t.Fatal("latency not measured")
	}
	if res.SimulatedLatency != 2*3*25*1e6 { // 2 × hops × 25ms in ns
		t.Fatalf("modelled latency = %v", res.SimulatedLatency)
	}
	_ = res.String()
}

func TestStabilityExperiment(t *testing.T) {
	res, err := RunStability(13, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NaiveCrashes != 10 {
		t.Fatalf("naive crashes = %d/10", res.NaiveCrashes)
	}
	if res.WhitelistCrashes != 0 {
		t.Fatalf("whitelist crashes = %d, want 0", res.WhitelistCrashes)
	}
	if res.WhitelistPrompts != 0 {
		t.Fatalf("whitelist prompts = %d, want 0", res.WhitelistPrompts)
	}
	if res.WhitelistAutoRuns == 0 {
		t.Fatal("no signature auto-allows recorded")
	}
	_ = res.String()
}

func TestPolicyManagerExperiment(t *testing.T) {
	res, err := RunPolicyManager(14, 100, 80)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.7 {
		t.Fatalf("policy accuracy = %.2f over converged scores", res.Accuracy)
	}
	if res.Confusion.Total() != 100 {
		t.Fatalf("confusion total = %d", res.Confusion.Total())
	}
	_ = res.String()
}

func TestPromptThrottleExperiment(t *testing.T) {
	tier, err := NewTier(TierConfig{Seed: 15, Programs: 10, Users: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	api := client.NewAPI(tier.Endpoints()[0], tier.Client("client", nil))
	res, err := RunPromptThrottle(PromptThrottleConfig{
		Seed: 15, Programs: 8, Weeks: 4, Threshold: 10, PerWeek: 2, RunsPerDay: 1,
	}, tier.World.Agents[0].Session, api, tier.World.Clock)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPromptsInWeek > 2 {
		t.Fatalf("weekly budget violated: %d", res.MaxPromptsInWeek)
	}
	// 8 programs × 7 days × 1 run = 56 execs/week ≥ threshold 10 by
	// week 2; budget 2/week over 4 weeks covers all 8 programs.
	if res.RatingPrompts == 0 || res.RatingsSubmitted == 0 {
		t.Fatalf("no prompts fired: %+v", res)
	}
	if res.RatingPrompts > 8 {
		t.Fatalf("prompts = %d for 8 programs", res.RatingPrompts)
	}
	// 8 possible prompts over 224 executions bounds the rate at ~0.036.
	if res.InterruptionRate > 0.05 {
		t.Fatalf("interruption rate = %.4f", res.InterruptionRate)
	}
	_ = res.String()
}

func TestAnalysisEvidenceExperiment(t *testing.T) {
	res, err := RunAnalysisEvidence(AnalysisConfig{
		Seed: 17, Programs: 120, Users: 20, VotesPerAgent: 6, SandboxRuns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]AnalysisRow{}
	for _, row := range res.Rows {
		rows[row.Source] = row
	}
	// The sandbox covers the full catalog immediately; the sparse
	// community does not.
	if rows["analysis"].Coverage != 1 {
		t.Fatalf("analysis coverage = %.2f", rows["analysis"].Coverage)
	}
	if rows["community"].Coverage >= 1 {
		t.Fatalf("budding-phase community coverage = %.2f, expected sparse", rows["community"].Coverage)
	}
	// Combined evidence flags at least as much PIS as either source.
	if rows["combined"].PISFlagged < rows["community"].PISFlagged ||
		rows["combined"].PISFlagged < rows["analysis"].PISFlagged {
		t.Fatalf("combined %.2f below a component (%.2f / %.2f)",
			rows["combined"].PISFlagged, rows["community"].PISFlagged, rows["analysis"].PISFlagged)
	}
	if rows["combined"].PISFlagged < 0.6 {
		t.Fatalf("combined PIS flagging = %.2f", rows["combined"].PISFlagged)
	}
	_ = res.String()
}

func TestCatalogCountHelpers(t *testing.T) {
	cat := GenerateCatalog(CatalogConfig{Seed: 21, Total: 300, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: 15})
	byCat := cat.CountByCategory()
	byVerdict := cat.CountByVerdict()
	sumCat, sumVerdict := 0, 0
	for _, n := range byCat {
		sumCat += n
	}
	for _, n := range byVerdict {
		sumVerdict += n
	}
	if sumCat != 300 || sumVerdict != 300 {
		t.Fatalf("counts sum to %d / %d", sumCat, sumVerdict)
	}
	// Verdict counts are the category counts rolled up.
	for v, n := range byVerdict {
		rolled := 0
		for c, m := range byCat {
			if c.Verdict() == v {
				rolled += m
			}
		}
		if rolled != n {
			t.Fatalf("verdict %v: rolled %d vs counted %d", v, rolled, n)
		}
	}
}

func TestInstallStudyInformationHelps(t *testing.T) {
	res, err := RunInstallStudy(InstallStudyConfig{
		Seed: 19, Programs: 120, Users: 40, VotesPerAgent: 30, DecisionsPerUser: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]InstallStudyRow{}
	for _, row := range res.Rows {
		rows[row.Level] = row
	}
	none := rows["none"]
	score := rows["score-only"]
	full := rows["full report"]

	if none.PISAvoided != 0 {
		t.Fatalf("uninformed users avoided %.2f of PIS", none.PISAvoided)
	}
	if !(score.PISAvoided > 0.3) {
		t.Fatalf("score-only avoided only %.2f", score.PISAvoided)
	}
	if !(full.PISAvoided > score.PISAvoided) {
		t.Fatalf("full report (%.2f) not above score-only (%.2f)", full.PISAvoided, score.PISAvoided)
	}
	if !(full.HarmPerUser < score.HarmPerUser && score.HarmPerUser < none.HarmPerUser) {
		t.Fatalf("harm ordering wrong: %.1f / %.1f / %.1f",
			none.HarmPerUser, score.HarmPerUser, full.HarmPerUser)
	}
	// The utility cost stays modest.
	if full.LegitRefused > 0.35 {
		t.Fatalf("full report refused %.2f of legitimate installs", full.LegitRefused)
	}
	_ = res.String()
}

// CountByVerdict tallies the catalog by ground-truth verdict.
func (c *Catalog) CountByVerdict() map[core.Verdict]int {
	out := map[core.Verdict]int{}
	for _, e := range c.Items {
		out[e.Verdict()]++
	}
	return out
}

// CountByCategory tallies the catalog by Table 1 cell.
func (c *Catalog) CountByCategory() map[core.Category]int {
	out := map[core.Category]int{}
	for _, e := range c.Items {
		out[e.Profile.Category]++
	}
	return out
}
