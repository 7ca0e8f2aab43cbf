// Package analysis implements the paper's primary future-work item
// (§5): "examine the possibility of using runtime software analysis to
// automatically collect information about whether software has some
// unwanted behaviour, for instance if it shows advertisements or
// includes an incomplete uninstallation function. The results from such
// investigations could then be inserted into the reputation system as
// hard evidence on the behaviour for that specific software."
//
// The Sandbox runs an executable in an instrumented copy of the host
// simulator and records what it observes. Detection is imperfect by
// design — each behaviour has a per-run detection probability and the
// analyzer can run a sample several times — so the experiments can
// study how automated evidence compares with (and combines with)
// community votes. A Pipeline drains a submission queue and publishes
// findings into a server expert feed, turning lab output into the
// subscribable "hard evidence" channel the paper sketches.
package analysis

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
)

// DetectionProfile gives the per-run probability that the sandbox
// notices each behaviour when the sample truly exhibits it. Behaviours
// differ: pop-up ads are obvious, usage tracking is subtle.
type DetectionProfile map[core.Behavior]float64

// DefaultDetectionProfile is a plausible single-run sandbox: visible
// behaviours are caught almost always, covert ones roughly half the
// time.
func DefaultDetectionProfile() DetectionProfile {
	return DetectionProfile{
		core.BehaviorDisplaysAds:          0.95,
		core.BehaviorStartupRegistration:  0.90,
		core.BehaviorBundledSoftware:      0.85,
		core.BehaviorBrokenUninstall:      0.80,
		core.BehaviorAltersSystemSettings: 0.75,
		core.BehaviorSendsPersonalData:    0.55,
		core.BehaviorTracksUsage:          0.50,
		core.BehaviorKeylogging:           0.45,
	}
}

// Finding is the outcome of analysing one executable.
type Finding struct {
	// Software identifies the analysed image.
	Software core.SoftwareID
	// Observed is the union of behaviours seen across runs.
	Observed core.Behavior
	// Runs is how many sandbox executions contributed.
	Runs int
	// SuggestedScore maps the observation onto the 1–10 scale: clean
	// samples high, invasive ones low. It is evidence, not a vote.
	SuggestedScore float64
}

// Sandbox is the instrumented runtime-analysis environment. It is safe
// for concurrent use.
type Sandbox struct {
	profile DetectionProfile

	mu  sync.Mutex
	rng *rand.Rand
}

// NewSandbox creates a sandbox with the given detection profile (nil
// selects the default) and deterministic randomness.
func NewSandbox(profile DetectionProfile, seed int64) *Sandbox {
	if profile == nil {
		profile = DefaultDetectionProfile()
	}
	return &Sandbox{profile: profile, rng: rand.New(rand.NewSource(seed))}
}

// Analyze executes the sample `runs` times in an instrumented host and
// reports the union of detected behaviours.
func (s *Sandbox) Analyze(exe *hostsim.Executable, runs int) (Finding, error) {
	if runs <= 0 {
		runs = 1
	}
	finding := Finding{Software: exe.ID(), Runs: runs}

	// The instrumented host: the sample must actually execute for the
	// monitors to see anything; a crashing image yields no evidence.
	host := hostsim.NewHost("sandbox")
	host.Install("C:/sample.exe", exe)

	for run := 0; run < runs; run++ {
		res, err := host.Exec("C:/sample.exe", vclock.Epoch.Add(time.Duration(run)*time.Minute))
		if err != nil {
			return finding, fmt.Errorf("analysis: sandbox run %d: %w", run, err)
		}
		if !res.Allowed {
			return finding, fmt.Errorf("analysis: sandbox hook interfered with run %d", run)
		}
		truth := exe.Profile.Behaviors
		s.mu.Lock()
		for bit := 0; bit < core.NumBehaviors; bit++ {
			flag := core.Behavior(1 << bit)
			if !truth.Has(flag) {
				continue
			}
			p, ok := s.profile[flag]
			if !ok {
				p = 0.5
			}
			if s.rng.Float64() < p {
				finding.Observed |= flag
			}
		}
		s.mu.Unlock()
	}
	finding.SuggestedScore = suggestScore(finding.Observed)
	return finding, nil
}

// suggestScore converts observed behaviours into evidence on the 1–10
// scale: each invasive behaviour costs points, the worst ones most.
func suggestScore(b core.Behavior) float64 {
	score := 9.0
	penalties := map[core.Behavior]float64{
		core.BehaviorDisplaysAds:          1.5,
		core.BehaviorStartupRegistration:  0.5,
		core.BehaviorBundledSoftware:      1.5,
		core.BehaviorBrokenUninstall:      1.5,
		core.BehaviorAltersSystemSettings: 2.0,
		core.BehaviorSendsPersonalData:    3.0,
		core.BehaviorTracksUsage:          2.0,
		core.BehaviorKeylogging:           4.0,
	}
	for flag, penalty := range penalties {
		if b.Has(flag) {
			score -= penalty
		}
	}
	if score < core.ScoreMin {
		score = core.ScoreMin
	}
	return score
}

// Pipeline drains submitted samples through a sandbox and publishes
// findings into a server expert feed — the paper's "hard evidence"
// channel. It is safe for concurrent use.
type Pipeline struct {
	sandbox *Sandbox
	feed    *server.ExpertFeed
	runs    int

	mu        sync.Mutex
	queue     []*hostsim.Executable
	processed int
}

// NewPipeline creates a pipeline publishing into feed, analysing each
// sample with the given number of sandbox runs.
func NewPipeline(sandbox *Sandbox, feed *server.ExpertFeed, runsPerSample int) *Pipeline {
	if runsPerSample <= 0 {
		runsPerSample = 3
	}
	return &Pipeline{sandbox: sandbox, feed: feed, runs: runsPerSample}
}

// Submit queues a sample for analysis.
func (p *Pipeline) Submit(exe *hostsim.Executable) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, exe)
}

// Drain analyses every queued sample and publishes the findings. It
// returns how many samples were processed.
func (p *Pipeline) Drain() (int, error) {
	p.mu.Lock()
	batch := p.queue
	p.queue = nil
	p.mu.Unlock()

	for _, exe := range batch {
		finding, err := p.sandbox.Analyze(exe, p.runs)
		if err != nil {
			return p.processedCount(), err
		}
		p.feed.Publish(server.ExpertAdvice{
			Software:  finding.Software,
			Score:     finding.SuggestedScore,
			Behaviors: finding.Observed,
			Note: fmt.Sprintf("automated runtime analysis, %d runs: %s",
				finding.Runs, finding.Observed),
		})
		p.mu.Lock()
		p.processed++
		p.mu.Unlock()
	}
	return p.processedCount(), nil
}

func (p *Pipeline) processedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed
}
