// Command simulate regenerates the paper's tables and every experiment
// in EXPERIMENTS.md as human-readable text tables.
//
// Usage:
//
//	simulate -exp all            # everything, full scale
//	simulate -exp table1,e6,e9   # a selection
//	simulate -exp e1 -quick      # reduced scale for a fast pass
//	simulate -list               # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"softreputation/internal/client"
	"softreputation/internal/simulation"
)

type experiment struct {
	id    string
	alias string // a memorable -exp spelling, or ""
	desc  string
	run   func(seed int64, quick bool) (fmt.Stringer, error)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "", "Table 1: PIS classification matrix", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultCatalogConfig(seed)
			if quick {
				cfg.Total = 600
			}
			return simulation.RunTable1(cfg), nil
		}},
		{"table2", "", "Table 2: classification after reputation deployment", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultCatalogConfig(seed)
			if quick {
				cfg.Total = 600
			}
			return simulation.RunTable2(cfg), nil
		}},
		{"e1", "", "E1: database scale (2000+ rated programs)", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultScaleConfig(seed)
			if quick {
				cfg = simulation.ScaleConfig{Seed: seed, Programs: 300, Users: 80, VotesPerAgent: 12, Lookups: 300}
			}
			return simulation.RunScale(cfg)
		}},
		{"e2", "", "E2: trust-factor growth schedule", func(seed int64, quick bool) (fmt.Stringer, error) {
			return simulation.RunTrustGrowth(30), nil
		}},
		{"e3", "", "E3: rating-prompt throttle", func(seed int64, quick bool) (fmt.Stringer, error) {
			t, err := simulation.NewTier(simulation.TierConfig{Seed: seed, Programs: 10, Users: 1})
			if err != nil {
				return nil, err
			}
			defer t.Close()
			cfg := simulation.DefaultPromptThrottleConfig(seed)
			if quick {
				cfg.Weeks = 4
			}
			api := client.NewAPI(t.Endpoints()[0], t.Client("client", nil))
			return simulation.RunPromptThrottle(cfg, t.World.Agents[0].Session, api, t.World.Clock)
		}},
		{"e4", "", "E4: 24-hour aggregation schedule", func(seed int64, quick bool) (fmt.Stringer, error) {
			days := 7
			if quick {
				days = 3
			}
			return simulation.RunAggregationSchedule(seed, days)
		}},
		{"e5", "", "E5: cold start and bootstrapping", func(seed int64, quick bool) (fmt.Stringer, error) {
			users := []int{25, 100, 400}
			programs := 600
			if quick {
				users = []int{10, 50}
				programs = 150
			}
			return simulation.RunColdStart(seed, programs, users)
		}},
		{"e6", "", "E6: Sybil / vote-flooding defences", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultSybilConfig(seed)
			if quick {
				cfg.SybilCount = 60
				cfg.HonestUsers = 50
				cfg.HonestVotes = 25
			}
			return simulation.RunSybil(cfg)
		}},
		{"e7", "", "E7: trust weighting vs slander", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultTrustWeightingConfig(seed)
			if quick {
				cfg.Programs, cfg.Users, cfg.TrustWeeks, cfg.VotesPerAgent = 60, 60, 6, 20
			}
			return simulation.RunTrustWeighting(cfg)
		}},
		{"e8", "", "E8: polymorphic re-hashing vs vendor keying", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultPolymorphicConfig(seed)
			if quick {
				cfg.Downloads = 150
			}
			return simulation.RunPolymorphic(cfg)
		}},
		{"e9", "", "E9: comparison with anti-virus / anti-spyware", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultCountermeasureConfig(seed)
			if quick {
				cfg = simulation.CountermeasureConfig{Seed: seed, Programs: 100, Users: 60, Days: 30, ExecutionsPerDay: 40}
			}
			return simulation.RunCountermeasures(cfg)
		}},
		{"e10", "", "E10: database breach privacy", func(seed int64, quick bool) (fmt.Stringer, error) {
			users, dict := 100, 10000
			if quick {
				users, dict = 25, 500
			}
			return simulation.RunBreach(seed, users, dict)
		}},
		{"e11", "", "E11: host stability and signature whitelisting", func(seed int64, quick bool) (fmt.Stringer, error) {
			hosts := 20
			if quick {
				hosts = 8
			}
			return simulation.RunStability(seed, hosts)
		}},
		{"e12", "", "E12: corporate policy enforcement", func(seed int64, quick bool) (fmt.Stringer, error) {
			programs, users := 300, 150
			if quick {
				programs, users = 100, 60
			}
			return simulation.RunPolicyManager(seed, programs, users)
		}},
		{"e13", "", "E13: anonymised lookup overhead", func(seed int64, quick bool) (fmt.Stringer, error) {
			lookups := 1000
			if quick {
				lookups = 200
			}
			return simulation.RunAnonymity(seed, lookups)
		}},
		{"e15", "", "E15: runtime analysis as hard evidence", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultAnalysisConfig(seed)
			if quick {
				cfg.Programs, cfg.Users = 120, 20
			}
			return simulation.RunAnalysisEvidence(cfg)
		}},
		{"e16", "", "E16: information level vs install decisions", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultInstallStudyConfig(seed)
			if quick {
				cfg.Programs, cfg.Users, cfg.DecisionsPerUser = 120, 40, 15
			}
			return simulation.RunInstallStudy(cfg)
		}},
		{"e17", "chaos", "E17: chaos — decision quality under server outages", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultChaosConfig(seed)
			if quick {
				cfg = simulation.QuickChaosConfig(seed)
			}
			return simulation.RunChaos(cfg)
		}},
		{"e18", "replication", "E18: replication — availability and durability over a replicated tier", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultReplicationConfig(seed)
			if quick {
				cfg = simulation.QuickReplicationConfig(seed)
			}
			return simulation.RunReplication(cfg)
		}},
		{"e19", "lookupperf", "E19: read-path fast lane — lookup throughput at deployment scale", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultLookupPerfConfig(seed)
			if quick {
				cfg = simulation.QuickLookupPerfConfig(seed)
			}
			return simulation.RunLookupPerf(cfg)
		}},
		{"e20", "overload", "E20: adaptive admission — priority-aware overload survival", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultOverloadConfig(seed)
			if quick {
				cfg = simulation.QuickOverloadConfig(seed)
			}
			return simulation.RunOverload(cfg)
		}},
		{"e21", "faultgrid", "E21: storage fault grid — durability under injected I/O failure, group-commit throughput", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultFaultGridConfig(seed)
			if quick {
				cfg = simulation.QuickFaultGridConfig(seed)
			}
			return simulation.RunFaultGrid(cfg)
		}},
		{"e22", "partition", "E22: partition safety — epoch fencing and divergence repair under split-brain", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultPartitionConfig(seed)
			if quick {
				cfg = simulation.QuickPartitionConfig(seed)
			}
			return simulation.RunPartition(cfg)
		}},
		{"e23", "wireperf", "E23: compact binary wire protocol — lookups/s and bytes/lookup, XML vs binary vs binary+batch", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultWirePerfConfig(seed)
			if quick {
				cfg = simulation.QuickWirePerfConfig(seed)
			}
			return simulation.RunWirePerf(cfg)
		}},
		{"e24", "telemetry", "E24: production telemetry — instrumentation overhead and metrics-only incident diagnosis", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultTelemetryConfig(seed)
			if quick {
				cfg = simulation.QuickTelemetryConfig(seed)
			}
			return simulation.RunTelemetry(cfg)
		}},
		{"e25", "scrub", "E25: self-healing storage — scrub detection of seeded bit rot, replica-sourced repair, background compaction latency", func(seed int64, quick bool) (fmt.Stringer, error) {
			cfg := simulation.DefaultScrubRepairConfig(seed)
			if quick {
				cfg = simulation.QuickScrubRepairConfig(seed)
			}
			return simulation.RunScrubRepair(cfg)
		}},
	}
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "reduced scale for a fast pass")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return
	}

	want := map[string]bool{}
	runAll := *exp == "all"
	if !runAll {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	for _, e := range all {
		if e.alias != "" && want[e.alias] {
			want[e.id] = true
		}
	}

	matched := 0
	for _, e := range all {
		if !runAll && !want[e.id] {
			continue
		}
		matched++
		fmt.Printf("==> %s — %s\n\n", e.id, e.desc)
		res, err := e.run(*seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simulate: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "simulate: no experiment matches %q (use -list)\n", *exp)
		os.Exit(2)
	}
}
