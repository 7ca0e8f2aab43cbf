package simulation

import (
	"testing"
	"time"
)

// TestOverloadQuick smoke-runs E20 at reduced scale and asserts the
// acceptance claims at 10x offered load: adaptive admission keeps
// critical lookups >= 99% successful where the static cap is a coin
// flip, delivers more goodput than the static cap thrashing past its
// contention knee, and keeps admitted latency bounded by the queue
// deadlines. (The full-scale grid lives in BenchmarkE20Overload.) Those
// three thresholds are measured against the wall clock, and the race
// detector's slowdown on a small machine moves them (critical success
// 0.967 on two loaded vCPUs): under it the test keeps the invariants —
// nothing fails but by shedding, the static arm sheds, the brownout
// ladder climbs — and leaves the thresholds to the plain run.
func TestOverloadQuick(t *testing.T) {
	res, err := RunOverload(QuickOverloadConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	static, adaptive := res.cellPair(10)
	if static == nil || adaptive == nil {
		t.Fatalf("missing cells: %+v", res.Cells)
	}
	if static.Failed != 0 || adaptive.Failed != 0 {
		t.Fatalf("unexpected non-shed failures: static %d, adaptive %d",
			static.Failed, adaptive.Failed)
	}
	if static.Shed == 0 {
		t.Fatalf("static arm never shed at 10x — overload did not engage: %+v", static)
	}
	if adaptive.Brownout == "full" {
		t.Fatalf("brownout ladder never climbed under 10x load: %+v", adaptive)
	}
	if raceEnabled {
		return
	}
	if adaptive.CriticalSuccess < 0.99 {
		t.Fatalf("adaptive critical-lookup success %.3f, want >= 0.99 (%d/%d)",
			adaptive.CriticalSuccess, adaptive.CriticalServed, adaptive.CriticalAttempts)
	}
	if adaptive.Goodput <= static.Goodput {
		t.Fatalf("adaptive goodput %.0f/s did not beat static %.0f/s",
			adaptive.Goodput, static.Goodput)
	}
	// Admitted latency must stay bounded: no admitted request may cost
	// more than the worst queue deadline plus the collapsed service
	// ceiling, and in practice p99 sits near the latency target.
	if adaptive.P99 > 100*time.Millisecond {
		t.Fatalf("adaptive admitted p99 %v unbounded", adaptive.P99)
	}
}
