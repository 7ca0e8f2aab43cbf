// Package simulation provides the agent-based world the experiments run
// in: a synthetic software catalog with ground-truth Table 1 cells, a
// user population with expertise levels and rating noise, a day-stepped
// engine wiring hosts, clients, the server and attackers together, and
// one runner per paper table / claim (see DESIGN.md §3).
package simulation

import (
	"fmt"
	"math/rand"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
)

// CatalogConfig controls synthetic catalog generation.
type CatalogConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Total is the number of executables to generate.
	Total int
	// LegitFrac and GreyFrac split the catalog by ground-truth verdict;
	// the remainder is malware. The defaults (0.60/0.25/0.15) follow
	// the paper's framing: most software is legitimate, a substantial
	// grey zone, a smaller malicious tail.
	LegitFrac float64
	GreyFrac  float64
	// DeceitfulFrac is the fraction of grey-zone and malware vendors
	// that rely on deceit: stripped vendor names and per-download
	// re-hashing (§3.3).
	DeceitfulFrac float64
	// Vendors is the size of the vendor pool.
	Vendors int
}

// DefaultCatalogConfig returns the standard experiment catalog: 2,400
// programs (comfortably over the paper's "well over 2000 rated software
// programs") across 120 vendors.
func DefaultCatalogConfig(seed int64) CatalogConfig {
	return CatalogConfig{
		Seed:          seed,
		Total:         2400,
		LegitFrac:     0.60,
		GreyFrac:      0.25,
		DeceitfulFrac: 0.4,
		Vendors:       120,
	}
}

// Catalog is a generated software population with ground truth.
type Catalog struct {
	// Items are the generated executables.
	Items []*hostsim.Executable
}

// greyCells and malwareCells are the Table 1 cells behind each coarse
// verdict (legitimate software is exactly cell 1).
var (
	greyCells = []core.Category{
		core.CategoryAdverse,
		core.CategorySemiTransparent,
		core.CategoryUnsolicited,
	}
	malwareCells = []core.Category{
		core.CategoryDoubleAgent,
		core.CategorySemiParasite,
		core.CategoryCovert,
		core.CategoryTrojan,
		core.CategoryParasite,
	}
)

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// trueScoreFor draws the informed-expert score for a cell: legitimate
// software scores high, the grey zone mid-range (degraded by its
// consequences), malware low.
func trueScoreFor(rng *rand.Rand, cat core.Category) float64 {
	switch cat.Verdict() {
	case core.VerdictLegitimate:
		return clamp(rng.NormFloat64()*0.8+8.3, 6, 10)
	case core.VerdictSpyware:
		return clamp(rng.NormFloat64()*1.2+4.5, 2, 7)
	default:
		return clamp(rng.NormFloat64()*0.7+1.8, 1, 3)
	}
}

// harmFor draws the per-execution harm from the consequence axis.
func harmFor(rng *rand.Rand, cat core.Category) float64 {
	switch cat.Consequence() {
	case core.ConsequenceTolerable:
		return 0
	case core.ConsequenceModerate:
		return 0.5 + rng.Float64()
	default:
		return 2 + 3*rng.Float64()
	}
}

// behaviorsFor draws the behaviour profile: grey-zone software shows
// the adware/tracking bundle, malware the invasive set.
func behaviorsFor(rng *rand.Rand, cat core.Category) core.Behavior {
	var b core.Behavior
	pick := func(flag core.Behavior, p float64) {
		if rng.Float64() < p {
			b |= flag
		}
	}
	switch cat.Verdict() {
	case core.VerdictLegitimate:
		pick(core.BehaviorStartupRegistration, 0.10)
	case core.VerdictSpyware:
		pick(core.BehaviorDisplaysAds, 0.75)
		pick(core.BehaviorTracksUsage, 0.55)
		pick(core.BehaviorBundledSoftware, 0.40)
		pick(core.BehaviorStartupRegistration, 0.50)
		pick(core.BehaviorBrokenUninstall, 0.45)
		pick(core.BehaviorAltersSystemSettings, 0.25)
	default:
		pick(core.BehaviorSendsPersonalData, 0.70)
		pick(core.BehaviorKeylogging, 0.45)
		pick(core.BehaviorAltersSystemSettings, 0.60)
		pick(core.BehaviorBrokenUninstall, 0.70)
		pick(core.BehaviorTracksUsage, 0.50)
		pick(core.BehaviorDisplaysAds, 0.30)
	}
	return b
}

// GenerateCatalog builds a deterministic synthetic catalog.
func GenerateCatalog(cfg CatalogConfig) *Catalog {
	if cfg.Total <= 0 {
		cfg.Total = 2400
	}
	if cfg.Vendors <= 0 {
		cfg.Vendors = cfg.Total/20 + 1
	}
	if cfg.LegitFrac == 0 && cfg.GreyFrac == 0 {
		cfg.LegitFrac, cfg.GreyFrac = 0.60, 0.25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Vendors have a class affinity: a vendor ships mostly one verdict
	// class, which is what makes vendor-level reputation informative.
	type vendorInfo struct {
		name    string
		verdict core.Verdict
	}
	vendors := make([]vendorInfo, cfg.Vendors)
	for i := range vendors {
		v := core.VerdictLegitimate
		r := rng.Float64()
		switch {
		case r < cfg.LegitFrac:
		case r < cfg.LegitFrac+cfg.GreyFrac:
			v = core.VerdictSpyware
		default:
			v = core.VerdictMalware
		}
		vendors[i] = vendorInfo{name: fmt.Sprintf("Vendor-%03d", i), verdict: v}
	}
	vendorsByVerdict := map[core.Verdict][]vendorInfo{}
	for _, v := range vendors {
		vendorsByVerdict[v.verdict] = append(vendorsByVerdict[v.verdict], v)
	}
	pickVendor := func(verdict core.Verdict) string {
		pool := vendorsByVerdict[verdict]
		if len(pool) == 0 {
			pool = vendors[:1]
			if len(pool) == 0 {
				return "Vendor-000"
			}
			return pool[0].name
		}
		return pool[rng.Intn(len(pool))].name
	}

	cat := &Catalog{}
	for i := 0; i < cfg.Total; i++ {
		var cell core.Category
		r := rng.Float64()
		switch {
		case r < cfg.LegitFrac:
			cell = core.CategoryLegitimate
		case r < cfg.LegitFrac+cfg.GreyFrac:
			cell = greyCells[rng.Intn(len(greyCells))]
		default:
			cell = malwareCells[rng.Intn(len(malwareCells))]
		}

		deceitful := cell.Verdict() != core.VerdictLegitimate &&
			rng.Float64() < cfg.DeceitfulFrac
		vendor := pickVendor(cell.Verdict())
		if deceitful && rng.Float64() < 0.5 {
			vendor = "" // stripped vendor name, the §3.3 PIS signal
		}

		exe := hostsim.Build(hostsim.Spec{
			FileName: fmt.Sprintf("program-%04d.exe", i),
			Vendor:   vendor,
			Version:  fmt.Sprintf("%d.%d", 1+rng.Intn(5), rng.Intn(10)),
			BodySize: 2048,
			Seed:     cfg.Seed*1_000_003 + int64(i),
			Profile: hostsim.Profile{
				Category:   cell,
				Behaviors:  behaviorsFor(rng, cell),
				Deceitful:  deceitful,
				HarmPerRun: harmFor(rng, cell),
				TrueScore:  trueScoreFor(rng, cell),
			},
		})
		cat.Items = append(cat.Items, exe)
	}
	return cat
}

// MetaOf returns the §3.3 metadata of an item, tolerating none of the
// parse errors that cannot happen for generated items.
func MetaOf(exe *hostsim.Executable) core.SoftwareMeta {
	meta, err := exe.Meta()
	if err != nil {
		panic(fmt.Sprintf("simulation: generated executable unparsable: %v", err))
	}
	return meta
}
