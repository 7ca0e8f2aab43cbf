// Benchmarks regenerating every table and experiment of DESIGN.md §3.
// Each benchmark wraps the corresponding simulation runner; custom
// metrics expose the experiment's headline numbers alongside the usual
// ns/op. `go test -bench=. -benchmem` prints the full set; cmd/simulate
// renders the same experiments as human-readable tables.
package softreputation

import (
	"fmt"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/simulation"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

// BenchmarkTable1Classification regenerates Table 1: the 3×3 PIS
// classification of a 2,400-program catalog.
func BenchmarkTable1Classification(b *testing.B) {
	var res simulation.Table1Result
	for i := 0; i < b.N; i++ {
		res = simulation.RunTable1(simulation.DefaultCatalogConfig(1))
	}
	b.ReportMetric(float64(res.VerdictCounts[core.VerdictSpyware]), "grey-zone-programs")
	b.ReportMetric(float64(res.Total), "programs")
}

// BenchmarkTable2Transform regenerates Table 2: the reputation-induced
// elimination of the medium-consent row.
func BenchmarkTable2Transform(b *testing.B) {
	var res simulation.Table2Result
	for i := 0; i < b.N; i++ {
		res = simulation.RunTable2(simulation.DefaultCatalogConfig(1))
	}
	b.ReportMetric(float64(res.ToHigh), "grey-to-legitimate")
	b.ReportMetric(float64(res.ToLow), "grey-to-malware")
}

// BenchmarkE1DatabaseScale reproduces the "well over 2000 rated
// software programs" deployment claim and measures lookups at that
// scale.
func BenchmarkE1DatabaseScale(b *testing.B) {
	var res simulation.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunScale(simulation.ScaleConfig{
			Seed: 1, Programs: 2500, Users: 300, VotesPerAgent: 20, Lookups: 500,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RatedPrograms), "rated-programs")
	b.ReportMetric(float64(res.LookupP50.Nanoseconds()), "lookup-p50-ns")
}

// BenchmarkE2TrustGrowth reproduces the trust-factor growth schedule.
func BenchmarkE2TrustGrowth(b *testing.B) {
	var res simulation.TrustGrowthResult
	for i := 0; i < b.N; i++ {
		res = simulation.RunTrustGrowth(30)
	}
	b.ReportMetric(float64(res.WeeksToCap+1), "weeks-to-cap")
}

// BenchmarkE3PromptThrottle reproduces the 50-execution / 2-per-week
// rating-prompt policy.
func BenchmarkE3PromptThrottle(b *testing.B) {
	h, err := simulation.NewHarness(simulation.WorldConfig{
		Seed:       3,
		Catalog:    simulation.CatalogConfig{Seed: 3, Total: 10, LegitFrac: 1, Vendors: 2},
		Population: simulation.PopulationConfig{Seed: 4, Total: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	var res simulation.PromptThrottleResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = simulation.RunPromptThrottle(simulation.PromptThrottleConfig{
			Seed: 3, Programs: 20, Weeks: 4,
			Threshold: 50, PerWeek: 2, RunsPerDay: 4,
		}, h.World.Agents[0].Session, h.API, h.World.Clock)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MaxPromptsInWeek), "max-prompts-per-week")
	b.ReportMetric(res.InterruptionRate*1e4, "prompts-per-10k-execs")
}

// BenchmarkE4AggregationJob reproduces the 24-hour aggregation
// schedule.
func BenchmarkE4AggregationJob(b *testing.B) {
	var res simulation.AggregationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunAggregationSchedule(4, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RunsHappened), "aggregation-runs-3d")
	b.ReportMetric(float64(res.MaxStaleness.Hours()), "max-staleness-h")
}

// BenchmarkE5ColdStart reproduces the cold-start / bootstrapping
// ablation.
func BenchmarkE5ColdStart(b *testing.B) {
	var res simulation.ColdStartResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunColdStart(5, 200, []int{10, 50})
		if err != nil {
			b.Fatal(err)
		}
	}
	var plainZero, bootZero float64
	for _, row := range res.Rows {
		if row.Users == 10 {
			if row.Bootstrap {
				bootZero = row.ZeroVoteFrac
			} else {
				plainZero = row.ZeroVoteFrac
			}
		}
	}
	b.ReportMetric(plainZero*100, "zero-vote-pct-plain")
	b.ReportMetric(bootZero*100, "zero-vote-pct-boot")
}

// BenchmarkE6SybilDefences reproduces the vote-flooding defence sweep.
func BenchmarkE6SybilDefences(b *testing.B) {
	var res simulation.SybilResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunSybil(simulation.SybilConfig{
			Seed: 6, HonestUsers: 60, HonestVotes: 30, SybilCount: 80, ExpertFrac: 0.2,
			DefenceSweep: []simulation.SybilDefence{
				{Name: "none"},
				{Name: "shared-mailbox", SharedMailbox: true},
				{Name: "trust", TrustWeeks: 6},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].ScoreShift, "shift-undefended")
	b.ReportMetric(res.Rows[1].ScoreShift, "shift-email-hash")
	b.ReportMetric(res.Rows[2].ScoreShift, "shift-trust")
}

// BenchmarkE7TrustWeighting reproduces the weighted-vs-unweighted
// aggregation ablation under slander.
func BenchmarkE7TrustWeighting(b *testing.B) {
	var res simulation.TrustWeightingResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunTrustWeighting(simulation.TrustWeightingConfig{
			Seed: 7, Programs: 60, Users: 60,
			ExpertFrac: 0.15, SlandererFrac: 0.25, TrustWeeks: 6, VotesPerAgent: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WeightedRMSE, "rmse-weighted")
	b.ReportMetric(res.UnweightedRMSE, "rmse-unweighted")
}

// BenchmarkE8Polymorphic reproduces the per-download re-hashing evasion
// and the vendor-keying countermeasure.
func BenchmarkE8Polymorphic(b *testing.B) {
	var res simulation.PolymorphicResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunPolymorphic(simulation.PolymorphicConfig{
			Seed: 8, Downloads: 200, Raters: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FileLevelCoverage*100, "file-coverage-pct")
	b.ReportMetric(res.VendorScore, "vendor-score")
}

// BenchmarkE9Countermeasures reproduces the §4.3 comparison with
// anti-virus and anti-spyware scanners.
func BenchmarkE9Countermeasures(b *testing.B) {
	var res simulation.CountermeasureResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunCountermeasures(simulation.CountermeasureConfig{
			Seed: 9, Programs: 100, Users: 60, Days: 45, ExecutionsPerDay: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch row.Setup {
		case "none":
			b.ReportMetric(row.Harm, "harm-none")
		case "anti-virus":
			b.ReportMetric(row.Harm, "harm-av")
		case "reputation":
			b.ReportMetric(row.Harm, "harm-reputation")
		case "reputation+av":
			b.ReportMetric(row.Harm, "harm-combined")
		}
	}
}

// BenchmarkE10BreachPrivacy reproduces the database-breach experiment.
func BenchmarkE10BreachPrivacy(b *testing.B) {
	var res simulation.BreachResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunBreach(10, 30, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.EmailsCrackedPlain), "emails-cracked-plain")
	b.ReportMetric(float64(res.EmailsCrackedPepper), "emails-cracked-peppered")
}

// BenchmarkE11Stability reproduces the §4.2 stability failure and the
// signature-whitelist fix.
func BenchmarkE11Stability(b *testing.B) {
	var res simulation.StabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunStability(11, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NaiveCrashes), "crashes-naive")
	b.ReportMetric(float64(res.WhitelistCrashes), "crashes-whitelisted")
}

// BenchmarkE12PolicyManager reproduces the corporate-policy enforcement
// accuracy.
func BenchmarkE12PolicyManager(b *testing.B) {
	var res simulation.PolicyManagerResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunPolicyManager(12, 120, 80)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Accuracy*100, "policy-accuracy-pct")
}

// BenchmarkE13AnonymityOverhead reproduces the direct-vs-onion lookup
// comparison.
func BenchmarkE13AnonymityOverhead(b *testing.B) {
	var res simulation.AnonymityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunAnonymity(13, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DirectPerOp.Nanoseconds()), "direct-ns")
	b.ReportMetric(float64(res.OnionPerOp.Nanoseconds()), "onion-ns")
}

// BenchmarkE15AnalysisEvidence reproduces the §5 runtime-analysis
// extension: sandbox evidence vs community votes in the budding phase.
func BenchmarkE15AnalysisEvidence(b *testing.B) {
	var res simulation.AnalysisResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunAnalysisEvidence(simulation.AnalysisConfig{
			Seed: 15, Programs: 150, Users: 25, VotesPerAgent: 6, SandboxRuns: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch row.Source {
		case "community":
			b.ReportMetric(row.PISFlagged*100, "pis-flagged-pct-community")
		case "combined":
			b.ReportMetric(row.PISFlagged*100, "pis-flagged-pct-combined")
		}
	}
}

// BenchmarkE16InstallStudy reproduces the §5 install-decision study:
// PIS installs avoided per information level.
func BenchmarkE16InstallStudy(b *testing.B) {
	var res simulation.InstallStudyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunInstallStudy(simulation.InstallStudyConfig{
			Seed: 16, Programs: 150, Users: 50, VotesPerAgent: 30, DecisionsPerUser: 15,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch row.Level {
		case "score-only":
			b.ReportMetric(row.PISAvoided*100, "pis-avoided-pct-score")
		case "full report":
			b.ReportMetric(row.PISAvoided*100, "pis-avoided-pct-full")
		}
	}
}

// BenchmarkE17Chaos reproduces the outage-resilience grid: decision
// latency and prompt rate for {no-resilience, retry-only,
// retry+breaker+cache} clients across outage profiles, headline
// numbers from the 100% partition.
func BenchmarkE17Chaos(b *testing.B) {
	var res simulation.ChaosResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunChaos(simulation.QuickChaosConfig(17))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		if row.Profile != "partition (100% outage)" {
			continue
		}
		switch row.Mechanism {
		case "none":
			b.ReportMetric(row.PromptRate*100, "prompt-pct-none")
			b.ReportMetric(float64(row.AvgLatency.Milliseconds()), "latency-ms-none")
		case "retry":
			b.ReportMetric(float64(row.AvgLatency.Milliseconds()), "latency-ms-retry")
		case "retry+breaker+cache":
			b.ReportMetric(row.PromptRate*100, "prompt-pct-full")
			b.ReportMetric(float64(row.AvgLatency.Milliseconds()), "latency-ms-full")
			b.ReportMetric(float64(row.StaleServes), "stale-serves-full")
		}
	}
}

// BenchmarkE18Replication runs the replicated-tier failover drill:
// fresh-lookup availability through a replica partition and a primary
// kill with promotion, against the single-server baseline, plus the
// durability headline (acked ratings lost).
func BenchmarkE18Replication(b *testing.B) {
	var res simulation.ReplicationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunReplication(simulation.QuickReplicationConfig(18))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Availability*100, "availability-pct")
	b.ReportMetric(res.BaselineAvailability*100, "baseline-availability-pct")
	b.ReportMetric(float64(res.LostVotes), "acked-ratings-lost")
	b.ReportMetric(float64(res.Resumes), "partition-resumes")
}

// BenchmarkE19LookupThroughput measures the read-path fast lane at the
// paper's deployment scale: a mixed hot/cold lookup workload over 2,500
// programs through the HTTP handler. Headline metrics: throughput, p99
// latency, cache hit ratio, and the fast lane's write transactions
// (which must be zero).
func BenchmarkE19LookupThroughput(b *testing.B) {
	var res simulation.LookupPerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunLookupPerf(simulation.DefaultLookupPerfConfig(19))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Perf.Throughput, "lookups/s")
	b.ReportMetric(res.Perf.HitRatio*100, "hit-ratio-pct")
	b.ReportMetric(float64(res.Perf.P99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(res.Perf.WriteTxns), "write-txns")
}

// BenchmarkE20Overload measures overload survival: the full E20 grid
// (1x and 10x offered load, static cap vs adaptive admission over a
// contention-knee service profile). Headline metrics at 10x: goodput
// for each arm, admitted p99, and the critical-lookup success rate —
// the adaptive arm must hold it at ~100% while the static cap shreds
// it.
func BenchmarkE20Overload(b *testing.B) {
	var res simulation.OverloadResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunOverload(simulation.DefaultOverloadConfig(20))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range res.Cells {
		if c.Multiplier != 10 {
			continue
		}
		b.ReportMetric(c.Goodput, c.Arm+"-goodput/s")
		b.ReportMetric(float64(c.P99.Nanoseconds()), c.Arm+"-p99-ns")
		b.ReportMetric(c.CriticalSuccess*100, c.Arm+"-critical-pct")
	}
}

// BenchmarkE21WriteGroupCommit measures storage fault tolerance and the
// group-commit pipeline: the full E21 fault grid (zero acked-write loss
// under injected EIO/ENOSPC/torn-write/kill faults) plus acked commit
// throughput against a modeled device fsync. Headline metrics: acked
// writes/s and fsyncs per write (must sit well below 1).
func BenchmarkE21WriteGroupCommit(b *testing.B) {
	var res simulation.FaultGridResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunFaultGrid(simulation.DefaultFaultGridConfig(21))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalLostAcked()), "lost-acked-writes")
	b.ReportMetric(float64(res.TotalResurrected()), "resurrected-writes")
	b.ReportMetric(res.Perf.WritesPerS, "writes/s")
	b.ReportMetric(res.Perf.FsyncsPerW, "fsyncs/write")
}

// BenchmarkE22PartitionSafety runs the full partition grid: a 3-node
// tier promoted mid-partition under client write load, across the
// isolation, split-brain-client, and reply-loss cells. Headline
// metrics: dual-acked writes (must be zero), quarantined stale batches,
// writes acked under the new epoch, and whether the healed tier
// converged byte-identically (1 = yes on every cell).
func BenchmarkE22PartitionSafety(b *testing.B) {
	var res simulation.PartitionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunPartition(simulation.DefaultPartitionConfig(22))
		if err != nil {
			b.Fatal(err)
		}
	}
	var dual, fenced int
	var quarantined uint64
	converged := 1.0
	for _, c := range res.Cells {
		dual += c.DualAcked
		quarantined += c.Quarantined
		fenced += c.FencedAcked
		if !c.Converged {
			converged = 0
		}
	}
	b.ReportMetric(float64(dual), "dual-acked-writes")
	b.ReportMetric(float64(quarantined), "quarantined-batches")
	b.ReportMetric(float64(fenced), "fenced-epoch-acks")
	b.ReportMetric(converged, "converged")
}

// BenchmarkE23WireProtocol measures the compact binary wire protocol at
// full scale: the E19-style mixed hot/cold lookup workload over real
// loopback HTTP, XML vs binary vs binary+batch, admission control on.
// Headline metrics: lookups/s and bytes/lookup per arm, and the
// binary+batch factors over XML — the claims are >=2x lookups/s and
// >=3x fewer bytes/lookup, enforced here at full scale.
func BenchmarkE23WireProtocol(b *testing.B) {
	var res simulation.WirePerfResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunWirePerf(simulation.DefaultWirePerfConfig(23))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.XML.Throughput, "xml-lookups/s")
	b.ReportMetric(res.Binary.Throughput, "binary-lookups/s")
	b.ReportMetric(res.BinaryBatch.Throughput, "batch-lookups/s")
	b.ReportMetric(res.XML.BytesPerLookup, "xml-B/lookup")
	b.ReportMetric(res.BinaryBatch.BytesPerLookup, "batch-B/lookup")
	b.ReportMetric(res.XML.AllocsPerLookup, "xml-allocs/lookup")
	b.ReportMetric(res.BinaryBatch.AllocsPerLookup, "batch-allocs/lookup")
	b.ReportMetric(float64(res.BinaryBatch.P99.Nanoseconds()), "batch-p99-ns")
	b.ReportMetric(res.SpeedupBatch, "batch-speedup-x")
	b.ReportMetric(res.ByteFactorBatch, "batch-byte-factor-x")
	if res.SpeedupBatch < 2 {
		b.Errorf("binary+batch speedup = %.2fx, want >= 2x", res.SpeedupBatch)
	}
	if res.ByteFactorBatch < 3 {
		b.Errorf("binary+batch byte factor = %.2fx, want >= 3x", res.ByteFactorBatch)
	}
}

// BenchmarkE24TelemetryOverhead measures what the production telemetry
// costs on the hottest path: the E23 binary-lookup workload over
// loopback HTTP, telemetry on vs compiled out, interleaved trials,
// best-of per arm. The claim enforced here: instrumentation costs less
// than 3% of throughput. The run also replays the injected-storage
// incident and asserts it stays diagnosable from /metrics + /trace
// text alone.
func BenchmarkE24TelemetryOverhead(b *testing.B) {
	var res simulation.TelemetryResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunTelemetry(simulation.DefaultTelemetryConfig(24))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Off.Throughput, "off-lookups/s")
	b.ReportMetric(res.On.Throughput, "on-lookups/s")
	b.ReportMetric(res.OverheadPct, "overhead-%")
	diagnosed := 0.0
	if res.Incident.Diagnosed() {
		diagnosed = 1
	}
	b.ReportMetric(diagnosed, "incident-diagnosed")
	if res.OverheadPct >= 3 {
		b.Errorf("telemetry overhead = %.2f%%, want < 3%%", res.OverheadPct)
	}
	if !res.Incident.Diagnosed() {
		b.Errorf("storage incident not diagnosable from scrapes: %+v", res.Incident)
	}
}

// BenchmarkE25SelfHealingStorage runs the full E25 grid: seeded bit
// rot across {snapshot, wal} x {idle, commit-load, compaction}, online
// scrub detection, and replica-sourced repair. Headline metrics:
// undetected corruption and acked-write loss (both must be zero),
// byte-identical convergence, and commit latency — p99 with the
// background compactor must not carry the compaction stall.
func BenchmarkE25SelfHealingStorage(b *testing.B) {
	var res simulation.ScrubRepairResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = simulation.RunScrubRepair(simulation.DefaultScrubRepairConfig(25))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Undetected()), "undetected-corruption")
	b.ReportMetric(float64(res.TotalLostAcked()), "lost-acked-writes")
	repaired := 0.0
	if res.AllRepaired() {
		repaired = 1
	}
	b.ReportMetric(repaired, "repaired-converged")
	b.ReportMetric(float64(res.Perf.P99.Nanoseconds()), "commit-p99-ns")
	if res.Undetected() != 0 {
		b.Errorf("bit rot went undetected in %d cells, want 0", res.Undetected())
	}
	if res.TotalLostAcked() != 0 {
		b.Errorf("lost %d acked writes through repair, want 0", res.TotalLostAcked())
	}
	if !res.AllRepaired() {
		b.Errorf("not every cell repaired and converged: %+v", res.Cells)
	}
	if res.Perf.P99 >= res.Config.CompactDelay {
		b.Errorf("background commit p99 %v carries the %v compaction stall", res.Perf.P99, res.Config.CompactDelay)
	}
}

// BenchmarkE14StoredbIngest measures the substrate: rating-ingestion
// throughput into the embedded store through the full repository path.
func BenchmarkE14StoredbIngest(b *testing.B) {
	store := repo.OpenMemory()
	defer store.Close()
	now := vclock.Epoch

	// Pre-create users and software once.
	const users, programs = 200, 200
	metas := make([]core.SoftwareMeta, programs)
	for i := 0; i < programs; i++ {
		content := []byte(fmt.Sprintf("program-%d", i))
		metas[i] = core.SoftwareMeta{
			ID: core.ComputeSoftwareID(content), FileName: fmt.Sprintf("p%d.exe", i),
			FileSize: 10, Vendor: "Bench", Version: "1",
		}
		if _, err := store.UpsertSoftware(metas[i], now); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < users; i++ {
		u := repo.User{Username: fmt.Sprintf("u%06d", i), PasswordHash: "x",
			EmailHash: fmt.Sprintf("h%06d", i), SignedUpAt: now, Activated: true,
			Trust: core.NewTrust(now)}
		if err := store.CreateUser(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.Rating{
			UserID:   fmt.Sprintf("u%06d", i%users),
			Software: metas[(i/users)%programs].ID,
			Score:    1 + i%10,
			At:       now,
		}
		if _, err := store.AddRating(r, ""); err != nil && err != repo.ErrAlreadyRated {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14StoredbRecovery measures crash recovery: reopening a
// store whose WAL holds a burst of committed batches.
func BenchmarkE14StoredbRecovery(b *testing.B) {
	dir := b.TempDir()
	db, err := storedb.Open(storedb.Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		err := db.Update(func(tx *storedb.Tx) error {
			return tx.MustBucket("bench").Put(key, []byte("value"))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storedb.Open(storedb.Options{Dir: dir, CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 2000 {
			b.Fatalf("recovered %d keys", db.Len())
		}
		db.Close()
	}
}
