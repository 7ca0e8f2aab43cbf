// Package baseline implements the conventional countermeasures the paper
// compares against in Section 4.3: signature-based anti-virus and
// anti-spyware scanners. Both work from a vendor-maintained definition
// database — "specialized, up to date and reliable information databases
// that are updated on a regular basis" — with the structural weaknesses
// the paper calls out:
//
//   - binary verdicts: "an executable is branded as either a virus or
//     not", with no grey zone in between;
//   - an investigation lag: "the organization behind the countermeasure
//     must investigate every software before being able to offer a
//     protection against it";
//   - legal exposure on grey-zone software: vendors "may be forced to
//     remove certain software from their list of targeted spyware to
//     avoid future legal actions" (§1, the Gator lawsuits), delivering
//     "an incomplete product";
//   - hash-keyed definitions, which per-instance re-hashing evades until
//     each mutant is independently observed.
package baseline

import (
	"math/rand"
	"sync"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
)

// Config configures a scanner.
type Config struct {
	// Lag is the analyst investigation delay between a sample being
	// observed and its definition shipping.
	Lag time.Duration
	// DetectMalware enables definitions for ground-truth malware.
	DetectMalware bool
	// DetectGreyZone enables definitions for ground-truth spyware (the
	// grey zone).
	DetectGreyZone bool
	// GreyZoneLegalDropRate is the fraction of grey-zone samples whose
	// definitions are withheld or withdrawn under legal pressure.
	GreyZoneLegalDropRate float64
	// Seed drives the deterministic legal-drop lottery.
	Seed int64
}

// Scanner is a signature-based scanner with a lagged definition
// database. It is safe for concurrent use.
type Scanner struct {
	cfg Config

	mu   sync.Mutex
	rng  *rand.Rand
	defs map[core.SoftwareID]time.Time // ID -> definition availability
	seen map[core.SoftwareID]bool
}

// New creates a scanner.
func New(cfg Config) *Scanner {
	return &Scanner{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		defs: make(map[core.SoftwareID]time.Time),
		seen: make(map[core.SoftwareID]bool),
	}
}

// NewAntiVirus returns the paper's anti-virus comparator: "anti-virus
// software does not focus on spyware, but rather on more malicious
// software types" (§1) — malware definitions only, with a short lag.
func NewAntiVirus(seed int64) *Scanner {
	return New(Config{
		Lag:           3 * 24 * time.Hour,
		DetectMalware: true,
		Seed:          seed,
	})
}

// NewAntiSpyware returns the anti-spyware comparator: it also targets
// the grey zone, but slower, and with a fraction of its grey-zone
// definitions suppressed by legal exposure.
func NewAntiSpyware(seed int64) *Scanner {
	return New(Config{
		Lag:                   7 * 24 * time.Hour,
		DetectMalware:         true,
		DetectGreyZone:        true,
		GreyZoneLegalDropRate: 0.3,
		Seed:                  seed,
	})
}

// Observe submits a sample to the vendor's lab at the given instant —
// the telemetry/honeypot path by which products learn about new
// software. If the sample falls inside the product's detection scope
// (and survives the legal lottery), its definition ships after the
// investigation lag. Observing the same identity again is a no-op: the
// analyst queue is keyed by hash, exactly like the definitions.
func (s *Scanner) Observe(exe *hostsim.Executable, at time.Time) {
	id := exe.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[id] {
		return
	}
	s.seen[id] = true

	verdict := exe.Profile.Category.Verdict()
	var covered bool
	switch verdict {
	case core.VerdictMalware:
		covered = s.cfg.DetectMalware
	case core.VerdictSpyware:
		covered = s.cfg.DetectGreyZone
		if covered && s.rng.Float64() < s.cfg.GreyZoneLegalDropRate {
			covered = false // definition withdrawn under legal threat
		}
	default:
		covered = false
	}
	if covered {
		s.defs[id] = at.Add(s.cfg.Lag)
	}
}

// Scan reports whether the scanner detects the executable at the given
// instant: a definition must exist and have shipped.
func (s *Scanner) Scan(exe *hostsim.Executable, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	shipped, ok := s.defs[exe.ID()]
	return ok && !now.Before(shipped)
}
