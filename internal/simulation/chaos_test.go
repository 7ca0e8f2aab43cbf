package simulation

import (
	"strings"
	"testing"
	"time"
)

// TestChaosAcceptance is the E17 acceptance check: with the fault
// injector simulating a 100% outage, a warm-cache host keeps making
// execution decisions without a single user prompt (stale-serve), the
// breaker opens after the configured threshold, and the table compares
// the three client builds.
func TestChaosAcceptance(t *testing.T) {
	res, err := runEntry[ChaosResult]("e17", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 profiles × 3 mechanisms", len(res.Rows))
	}

	rows := make(map[string]ChaosRow)
	for _, r := range res.Rows {
		rows[r.Profile+"/"+r.Mechanism] = r
	}

	full, ok := rows["partition (100% outage)/retry+breaker+cache"]
	if !ok {
		t.Fatalf("missing full-build partition row; have %v", res.Rows)
	}
	if full.Prompts != 0 {
		t.Errorf("full build prompted %d times during the partition, want 0", full.Prompts)
	}
	if full.StaleServes == 0 {
		t.Error("full build served no stale reports during the partition")
	}
	if full.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1", full.BreakerOpens)
	}
	if full.Decisions == 0 {
		t.Error("full build made no decisions")
	}

	none := rows["partition (100% outage)/none"]
	if none.Prompts == 0 {
		t.Error("no-resilience build should prompt during the partition")
	}
	if none.AvgLatency < full.AvgLatency {
		t.Errorf("no-resilience latency %v should exceed full-build latency %v",
			none.AvgLatency, full.AvgLatency)
	}

	// The breaker also caps load: once open, no requests leave the host.
	retryOnly := rows["partition (100% outage)/retry"]
	if retryOnly.ServerRequests <= full.ServerRequests {
		t.Errorf("retry-only issued %d requests, full build %d — breaker should shed load",
			retryOnly.ServerRequests, full.ServerRequests)
	}

	out := res.String()
	for _, want := range []string{"E17", "retry+breaker+cache", "partition", "prompt rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// pinnedChaos is the whole E17 table for TestChaosDeterminism's
// configuration. Every number in it is exact under the seed, so a
// change to the tier or the clients that moves any of them changes
// the experiment.
const pinnedChaos = "E17 — chaos: decision quality under server outages (§4.2)\n" +
	"outage profile              client build         decisions  prompts  prompt rate  wrong rate  avg decision latency  stale serves  breaker opens  server reqs\n" +
	"------------------------------------------------------------------------------------------------------------------------------------------------------------\n" +
	"flaky (drop 1/2)            none                 10         5        0.50         0.00        100ms                 0             0              10         \n" +
	"flaky (drop 1/2)            retry                10         0        0.00         0.10        700ms                 0             0              20         \n" +
	"flaky (drop 1/2)            retry+breaker+cache  10         0        0.00         0.10        700ms                 0             0              20         \n" +
	"overload (503+Retry-After)  none                 10         10       1.00         0.00        0s                    0             0              10         \n" +
	"overload (503+Retry-After)  retry                10         10       1.00         0.00        4.508336204s          0             0              30         \n" +
	"overload (503+Retry-After)  retry+breaker+cache  10         0        0.00         0.10        427.663169ms          10            1              3          \n" +
	"partition (100% outage)     none                 10         10       1.00         0.00        1s                    0             0              10         \n" +
	"partition (100% outage)     retry                10         10       1.00         0.00        4.5s                  0             0              30         \n" +
	"partition (100% outage)     retry+breaker+cache  10         0        0.00         0.10        450ms                 10            1              3          \n" +
	"latency is virtual time the process stayed frozen awaiting its decision;\n" +
	"the full build answers outages from the stale cache: no prompts, no waiting.\n"

// TestChaosDeterminism replays the same seed and expects identical
// tables, equal to the pinned one: the whole fault plan runs on
// virtual time.
func TestChaosDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, Programs: 40, Users: 20, VotesPerAgent: 15, HostPrograms: 10}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic chaos run:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.String() != pinnedChaos {
		t.Fatalf("chaos table moved off its pin:\n%s\nwant\n%s", a.String(), pinnedChaos)
	}
}

// TestChaosRunsFast guards the virtual-time property: a multi-hour
// outage grid must replay in wall-clock seconds.
func TestChaosRunsFast(t *testing.T) {
	start := time.Now()
	cfg := ChaosConfig{Seed: 3, Programs: 40, Users: 20, VotesPerAgent: 15, HostPrograms: 10}
	if _, err := RunChaos(cfg); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("chaos grid took %v of wall time", elapsed)
	}
}
