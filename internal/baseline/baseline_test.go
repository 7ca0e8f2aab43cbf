package baseline

import (
	"math/rand"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/vclock"
)

func exeWithCategory(seed int64, cat core.Category) *hostsim.Executable {
	return hostsim.Build(hostsim.Spec{
		FileName: "sample.exe",
		Vendor:   "V",
		Seed:     seed,
		Profile:  hostsim.Profile{Category: cat},
	})
}

func TestAntiVirusDetectsMalwareAfterLag(t *testing.T) {
	av := NewAntiVirus(1)
	trojan := exeWithCategory(1, core.CategoryTrojan)
	t0 := vclock.Epoch

	if av.Scan(trojan, t0) {
		t.Fatal("detected before any observation")
	}
	av.Observe(trojan, t0)
	if av.Scan(trojan, t0) {
		t.Fatal("detected before the investigation lag elapsed")
	}
	if av.Scan(trojan, t0.Add(2*24*time.Hour)) {
		t.Fatal("detected at day 2 with a 3-day lag")
	}
	if !av.Scan(trojan, t0.Add(3*24*time.Hour)) {
		t.Fatal("not detected after the lag")
	}
	if len(av.defs) != 1 {
		t.Fatal("definition count wrong")
	}
}

func TestAntiVirusIgnoresGreyZoneAndLegit(t *testing.T) {
	av := NewAntiVirus(1)
	grey := exeWithCategory(2, core.CategoryUnsolicited) // spyware
	legit := exeWithCategory(3, core.CategoryLegitimate)
	t0 := vclock.Epoch
	av.Observe(grey, t0)
	av.Observe(legit, t0)
	late := t0.Add(365 * 24 * time.Hour)
	if av.Scan(grey, late) {
		t.Fatal("anti-virus must not target the grey zone (§1)")
	}
	if av.Scan(legit, late) {
		t.Fatal("false positive on legitimate software")
	}
	if len(av.seen) != 2 {
		t.Fatal("observations miscounted")
	}
}

func TestAntiSpywareCoversGreyZoneWithLegalDrops(t *testing.T) {
	as := NewAntiSpyware(7)
	t0 := vclock.Epoch
	late := t0.Add(30 * 24 * time.Hour)

	detected := 0
	const n = 200
	for i := 0; i < n; i++ {
		grey := exeWithCategory(int64(100+i), core.CategoryUnsolicited)
		as.Observe(grey, t0)
		if as.Scan(grey, late) {
			detected++
		}
	}
	// Roughly 30% of grey-zone definitions are suppressed by the legal
	// lottery; allow generous slack around the expectation of 140.
	if detected < n/2 || detected >= n {
		t.Fatalf("grey-zone detections = %d of %d, want partial coverage", detected, n)
	}

	// Malware is always covered (no legal exposure).
	mal := exeWithCategory(999, core.CategoryParasite)
	as.Observe(mal, t0)
	if !as.Scan(mal, late) {
		t.Fatal("anti-spyware missed malware")
	}
}

func TestPolymorphicEvasion(t *testing.T) {
	// Hash-keyed definitions: a mutant of a detected sample is clean
	// until the lab observes that exact mutant.
	av := NewAntiVirus(1)
	t0 := vclock.Epoch
	late := t0.Add(10 * 24 * time.Hour)

	original := exeWithCategory(1, core.CategoryParasite)
	av.Observe(original, t0)
	if !av.Scan(original, late) {
		t.Fatal("original not detected")
	}
	mutant := original.Mutate(rand.New(rand.NewSource(5)))
	if av.Scan(mutant, late) {
		t.Fatal("mutant detected without observation — definitions are hash-keyed")
	}
	av.Observe(mutant, late)
	if !av.Scan(mutant, late.Add(3*24*time.Hour)) {
		t.Fatal("observed mutant not detected after lag")
	}
}

func TestObserveIdempotent(t *testing.T) {
	av := NewAntiVirus(1)
	mal := exeWithCategory(1, core.CategoryTrojan)
	t0 := vclock.Epoch
	av.Observe(mal, t0)
	// Re-observing later must not push the definition date back.
	av.Observe(mal, t0.Add(30*24*time.Hour))
	if !av.Scan(mal, t0.Add(3*24*time.Hour)) {
		t.Fatal("re-observation delayed the definition")
	}
}
