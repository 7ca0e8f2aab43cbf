package simulation

import (
	"fmt"
	"time"

	"softreputation/internal/client"
)

// Experiment is one table or experiment of EXPERIMENTS.md: its id (the
// heading's T<n> or E<n>, as "table<n>" or "e<n>"), an optional alias,
// the one-line description `simulate -list` prints, and Run, which
// holds the experiment's whole configuration at full scale and its
// reduced-scale overrides when quick is set.
type Experiment struct {
	ID    string
	Alias string // a memorable -exp spelling, or ""
	Desc  string
	Run   func(seed int64, quick bool) (fmt.Stringer, error)
}

// Experiments is the one list of experiments: cmd/simulate, the root
// benchmarks and the tests all run these entries, in this order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "", "Table 1: PIS classification matrix", func(seed int64, quick bool) (fmt.Stringer, error) {
			return RunTable1(tableCatalog(seed, quick)), nil
		}},
		{"table2", "", "Table 2: classification after reputation deployment", func(seed int64, quick bool) (fmt.Stringer, error) {
			return RunTable2(tableCatalog(seed, quick)), nil
		}},
		{"e1", "", "E1: database scale (2000+ rated programs)", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := ScaleConfig{Seed: seed, Programs: 2500, Users: 600, VotesPerAgent: 25, Lookups: 2000}
			if quick {
				cfg = ScaleConfig{Seed: seed, Programs: 300, Users: 80, VotesPerAgent: 12, Lookups: 300}
			}
			return RunScale(cfg)
		}},
		{"e2", "", "E2: trust-factor growth schedule", func(seed int64, quick bool) (fmt.Stringer, error) {
			return RunTrustGrowth(30), nil
		}},
		{"e3", "", "E3: rating-prompt throttle", func(seed int64, quick bool) (fmt.Stringer, error) {
			t, err := NewTier(TierConfig{Seed: seed, Programs: 10, Users: 1})
			if err != nil {
				return nil, err
			}
			defer t.Close()
			// The paper's parameters: a rating prompt after 50
			// executions, at most two a week.
			cfg := PromptThrottleConfig{
				Seed: seed, Programs: 40, Weeks: 8,
				Threshold:  client.DefaultRatingPromptThreshold,
				PerWeek:    client.DefaultMaxRatingPromptsWeek,
				RunsPerDay: 2,
			}
			if quick {
				cfg.Weeks = 4
			}
			api := client.NewAPI(t.Endpoints()[0], t.Client("client", nil))
			return RunPromptThrottle(cfg, t.World.Agents[0].Session, api, t.World.Clock)
		}},
		{"e4", "", "E4: 24-hour aggregation schedule", func(seed int64, quick bool) (fmt.Stringer, error) {
			days := 7
			if quick {
				days = 3
			}
			return RunAggregationSchedule(seed, days)
		}},
		{"e5", "", "E5: cold start and bootstrapping", func(seed int64, quick bool) (fmt.Stringer, error) {
			users := []int{25, 100, 400}
			programs := 600
			if quick {
				users = []int{10, 50}
				programs = 150
			}
			return RunColdStart(seed, programs, users)
		}},
		{"e6", "", "E6: Sybil / vote-flooding defences", func(seed int64, quick bool) (fmt.Stringer, error) {
			// No DefenceSweep: RunSybil sweeps DefaultSybilDefences.
			cfg := SybilConfig{Seed: seed, HonestUsers: 120, HonestVotes: 40, SybilCount: 200, ExpertFrac: 0.15}
			if quick {
				cfg.SybilCount, cfg.HonestUsers, cfg.HonestVotes = 60, 50, 25
			}
			return RunSybil(cfg)
		}},
		{"e7", "", "E7: trust weighting vs slander", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := TrustWeightingConfig{
				Seed: seed, Programs: 150, Users: 120,
				ExpertFrac: 0.10, SlandererFrac: 0.20,
				TrustWeeks: 8, VotesPerAgent: 30,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.TrustWeeks, cfg.VotesPerAgent = 60, 60, 6, 20
			}
			return RunTrustWeighting(cfg)
		}},
		{"e8", "", "E8: polymorphic re-hashing vs vendor keying", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := PolymorphicConfig{Seed: seed, Downloads: 500, Raters: 120}
			if quick {
				cfg.Downloads = 150
			}
			return RunPolymorphic(cfg)
		}},
		{"e9", "", "E9: comparison with anti-virus / anti-spyware", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := CountermeasureConfig{Seed: seed, Programs: 300, Users: 150, Days: 90, ExecutionsPerDay: 60}
			if quick {
				cfg = CountermeasureConfig{Seed: seed, Programs: 100, Users: 60, Days: 30, ExecutionsPerDay: 40}
			}
			return RunCountermeasures(cfg)
		}},
		{"e10", "", "E10: database breach privacy", func(seed int64, quick bool) (fmt.Stringer, error) {
			users, dict := 100, 10000
			if quick {
				users, dict = 25, 500
			}
			return RunBreach(seed, users, dict)
		}},
		{"e11", "", "E11: host stability and signature whitelisting", func(seed int64, quick bool) (fmt.Stringer, error) {
			hosts := 20
			if quick {
				hosts = 8
			}
			return RunStability(seed, hosts)
		}},
		{"e12", "", "E12: corporate policy enforcement", func(seed int64, quick bool) (fmt.Stringer, error) {
			programs, users := 300, 150
			if quick {
				programs, users = 100, 60
			}
			return RunPolicyManager(seed, programs, users)
		}},
		{"e13", "", "E13: anonymised lookup overhead", func(seed int64, quick bool) (fmt.Stringer, error) {
			lookups := 1000
			if quick {
				lookups = 200
			}
			return RunAnonymity(seed, lookups)
		}},
		{"e15", "", "E15: runtime analysis as hard evidence", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := AnalysisConfig{Seed: seed, Programs: 300, Users: 40, VotesPerAgent: 8, SandboxRuns: 3}
			if quick {
				cfg.Programs, cfg.Users = 120, 20
			}
			return RunAnalysisEvidence(cfg)
		}},
		{"e16", "", "E16: information level vs install decisions", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := InstallStudyConfig{Seed: seed, Programs: 300, Users: 120, VotesPerAgent: 40, DecisionsPerUser: 30}
			if quick {
				cfg.Programs, cfg.Users, cfg.DecisionsPerUser = 120, 40, 15
			}
			return RunInstallStudy(cfg)
		}},
		{"e17", "chaos", "E17: chaos — decision quality under server outages", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := ChaosConfig{Seed: seed, Programs: 120, Users: 60, VotesPerAgent: 40, HostPrograms: 30}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent, cfg.HostPrograms = 60, 30, 20, 15
			}
			return RunChaos(cfg)
		}},
		{"e18", "replication", "E18: replication — availability and durability over a replicated tier", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := ReplicationConfig{
				Seed: seed, Programs: 120, Users: 40, VotesPerAgent: 20,
				Replicas: 2, LookupsPerPhase: 200, VotesPerPhase: 60,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 60, 16, 8
				cfg.LookupsPerPhase, cfg.VotesPerPhase = 60, 20
			}
			return RunReplication(cfg)
		}},
		{"e19", "lookupperf", "E19: read-path fast lane — lookup throughput at deployment scale", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := LookupPerfConfig{
				Seed: seed, Programs: 2500, Users: 300, VotesPerAgent: 20,
				Lookups: 30000, Workers: 8,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 300, 40, 8
				cfg.Lookups, cfg.Workers = 3000, 4
			}
			return RunLookupPerf(cfg)
		}},
		{"e20", "overload", "E20: adaptive admission — priority-aware overload survival", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := OverloadConfig{
				Seed: seed, Programs: 400, Users: 60, VotesPerAgent: 8,
				Multipliers: []int{1, 10}, Duration: 1500 * time.Millisecond,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 150, 30, 6
				cfg.Multipliers, cfg.Duration = []int{10}, 900*time.Millisecond
			}
			return RunOverload(cfg)
		}},
		{"e21", "faultgrid", "E21: storage fault grid — durability under injected I/O failure, group-commit throughput", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := FaultGridConfig{
				Seed:    seed,
				Writers: 8, OpsPerWriter: 30, CompactEvery: 48,
				FireAfters:  []int{0, 3, 9},
				PerfWriters: 16, PerfOps: 40, FsyncDelay: time.Millisecond,
			}
			if quick {
				cfg.Writers, cfg.OpsPerWriter, cfg.CompactEvery = 4, 15, 24
				cfg.FireAfters = []int{0, 4}
				cfg.PerfWriters, cfg.PerfOps, cfg.FsyncDelay = 8, 25, 600*time.Microsecond
			}
			return RunFaultGrid(cfg)
		}},
		{"e22", "partition", "E22: partition safety — epoch fencing and divergence repair under split-brain", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := PartitionConfig{
				Seed: seed, Programs: 100, Users: 30, VotesPerAgent: 10,
				Stragglers: 8, StageWrites: 24, Lookups: 40,
				Cells: []string{CellIsolation, CellSplitClient, CellReplyLoss},
			}
			if quick {
				// The two divergence-heavy cells at small scale, cheap
				// enough for a short-mode race smoke.
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 60, 16, 6
				cfg.Stragglers, cfg.StageWrites, cfg.Lookups = 4, 10, 15
				cfg.Cells = []string{CellSplitClient, CellReplyLoss}
			}
			return RunPartition(cfg)
		}},
		{"e23", "wireperf", "E23: compact binary wire protocol — lookups/s and bytes/lookup, XML vs binary vs binary+batch", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := WirePerfConfig{
				Seed: seed, Programs: 2000, Users: 200, VotesPerAgent: 15,
				Lookups: 24000, Workers: 8,
				BatchSize: 64,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 250, 30, 6
				cfg.Lookups, cfg.Workers, cfg.BatchSize = 3000, 4, 32
			}
			return RunWirePerf(cfg)
		}},
		{"e24", "telemetry", "E24: production telemetry — instrumentation overhead and metrics-only incident diagnosis", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := TelemetryConfig{
				Seed: seed, Programs: 1500, Users: 150, VotesPerAgent: 12,
				Lookups: 16000, Workers: 8, Trials: 4,
				IncidentWrites: 120, IncidentLookups: 120,
			}
			if quick {
				cfg.Programs, cfg.Users, cfg.VotesPerAgent = 200, 25, 5
				cfg.Lookups, cfg.Workers, cfg.Trials = 2000, 4, 2
				cfg.IncidentWrites, cfg.IncidentLookups = 40, 40
			}
			return RunTelemetry(cfg)
		}},
		{"e25", "scrub", "E25: self-healing storage — scrub detection of seeded bit rot, replica-sourced repair, background compaction latency", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := ScrubRepairConfig{
				Seed:     seed,
				SeedKeys: 32, TailKeys: 6,
				Writers: 4, OpsPerWriter: 40,
				CompactEvery: 8,
				PerfCommits:  400, PerfCompactEvery: 16, CompactDelay: 20 * time.Millisecond,
			}
			if quick {
				cfg.SeedKeys, cfg.TailKeys = 16, 4
				cfg.Writers, cfg.OpsPerWriter = 3, 15
				cfg.CompactEvery = 6
				cfg.PerfCommits, cfg.PerfCompactEvery, cfg.CompactDelay = 120, 12, 25*time.Millisecond
			}
			return RunScrubRepair(cfg)
		}},
	}
}

// tableCatalog is the catalog both tables classify: the world's default,
// cut to 600 programs for a quick pass.
func tableCatalog(seed int64, quick bool) CatalogConfig {
	cfg := DefaultCatalogConfig(seed)
	if quick {
		cfg.Total = 600
	}
	return cfg
}
