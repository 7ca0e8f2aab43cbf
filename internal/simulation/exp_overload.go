package simulation

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/server"
	"softreputation/internal/wire"
)

// Experiment E20 — adaptive admission under overload. The static
// MaxInflight cap answers the question "how many requests may be inside
// the handlers" with a constant, but the right answer moves at runtime:
// past a contention knee (lock convoys, GC pressure, cache thrash) each
// extra concurrent request makes every request slower, so a cap sized
// for peak hardware throughput operates the server deep inside its own
// collapse — and it sheds a critical-process lookup with the same coin
// flip as a feed poll.
//
// E20 drives an offered-load grid (1x and 10x the static cap's worth of
// closed-loop clients) against the same world twice: once with the
// legacy static cap, once with the adaptive admission layer capped at
// the same MaxLimit. Handler cost is injected via SetServiceProfile —
// flat up to a concurrency knee, degrading quadratically beyond it —
// so the AIMD limiter has a real latency signal. The client mix is the
// deployment mix: a few critical-process lookups, mostly interactive
// lookups, some writes, some background polls. Reported per cell:
// goodput (2xx/s), p50/p99 latency of admitted requests, and the
// critical-lookup success rate. The headline claims under test at 10x:
// adaptive admission keeps critical lookups >= 99% successful, delivers
// more goodput than the static cap (which is stuck thrashing at its
// fixed concurrency), and keeps admitted p99 bounded near the latency
// target instead of the collapsed service time.

// OverloadConfig sizes E20.
type OverloadConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int

	// Multipliers is the offered-load grid: each cell runs
	// mult*overloadStaticCap closed-loop clients for Duration, thinking
	// overloadThinkTime between requests.
	Multipliers []int
	Duration    time.Duration
}

// E20's fixed shape.
const (
	// overloadStaticCap is the legacy arm's MaxInflight and the adaptive
	// arm's MaxLimit: both arms are allowed the same peak concurrency.
	overloadStaticCap = 16
	// overloadServiceTime is the injected per-request handler cost at or
	// below overloadKnee; beyond it cost grows quadratically with
	// admitted concurrency (SetServiceProfile).
	overloadServiceTime = 2 * time.Millisecond
	overloadKnee        = 4
	// overloadLatencyTarget and overloadEvalWindow tune the adaptive
	// arm's AIMD loop.
	overloadLatencyTarget = 6 * time.Millisecond
	overloadEvalWindow    = 50 * time.Millisecond
	overloadThinkTime     = 10 * time.Millisecond

	// Request mix: fractions of critical lookups, interactive lookups
	// and writes; the remainder is background traffic.
	overloadCriticalFrac    = 0.05
	overloadInteractiveFrac = 0.55
	overloadWriteFrac       = 0.20
)

// OverloadCell is one (arm, multiplier) measurement.
type OverloadCell struct {
	Arm        string
	Multiplier int

	Attempts int     // requests issued (offered load)
	Served   int     // 2xx answers
	Shed     int     // 429 answers
	Failed   int     // anything else
	Offered  float64 // attempts per second
	Goodput  float64 // 2xx per second

	P50, P99 time.Duration // latency of served requests

	CriticalAttempts int
	CriticalServed   int
	CriticalSuccess  float64

	// Adaptive-arm telemetry (zero for the static arm).
	FinalLimit int
	Brownout   string
}

// OverloadResult reports E20: cells come in (static, adaptive) pairs
// per multiplier.
type OverloadResult struct {
	Config OverloadConfig
	Cells  []OverloadCell
}

// cellPair returns the static and adaptive cells for a multiplier.
func (r OverloadResult) cellPair(mult int) (static, adaptive *OverloadCell) {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Multiplier != mult {
			continue
		}
		if c.Arm == "static" {
			static = c
		} else {
			adaptive = c
		}
	}
	return static, adaptive
}

// RunOverload executes E20.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	res := OverloadResult{Config: cfg}
	for _, adaptive := range []bool{false, true} {
		cells, err := runOverloadArm(cfg, adaptive)
		if err != nil {
			return res, err
		}
		res.Cells = append(res.Cells, cells...)
	}
	sort.SliceStable(res.Cells, func(i, j int) bool {
		return res.Cells[i].Multiplier < res.Cells[j].Multiplier
	})
	return res, nil
}

// runOverloadArm builds a fresh world for one arm and measures every
// multiplier on it. Each arm gets its own world (admission control is a
// construction-time choice), built from the same seed so both arms
// serve the same catalog and population.
func runOverloadArm(cfg OverloadConfig, adaptive bool) ([]OverloadCell, error) {
	scfg := server.Config{}
	arm := "static"
	if adaptive {
		arm = "adaptive"
		scfg.AdmissionControl = true
		scfg.Admission = admission.Config{
			MaxLimit:      overloadStaticCap,
			LatencyTarget: overloadLatencyTarget,
			EvalWindow:    overloadEvalWindow,
			// Tight queue deadlines: a lookup that would wait longer than
			// a human notices is better shed at arrival than served late,
			// and they keep admitted end-to-end latency bounded.
			QueueDeadline: [admission.NumClasses]time.Duration{
				admission.Critical:    250 * time.Millisecond,
				admission.Interactive: 25 * time.Millisecond,
				admission.Write:       15 * time.Millisecond,
				admission.Background:  5 * time.Millisecond,
			},
		}
	} else {
		scfg.MaxInflight = overloadStaticCap
	}

	t, err := NewTier(TierConfig{
		Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, VotesPerAgent: cfg.VotesPerAgent,
		Server: scfg,
	})
	if err != nil {
		return nil, err
	}
	defer t.Close()
	w := t.World
	// Pre-encode the lookup bodies once; the measured loops replay them.
	bodies, err := lookupBodies(w.Catalog.Items)
	if err != nil {
		return nil, err
	}

	w.Server.SetServiceProfile(overloadServiceTime, overloadKnee)
	handler := w.Server.Handler()
	var cells []OverloadCell
	for _, mult := range cfg.Multipliers {
		cell := runOverloadCell(cfg, arm, mult, handler, bodies)
		if adaptive {
			st := w.Server.Admission().Snapshot()
			cell.FinalLimit = st.Limit
			cell.Brownout = st.Level.String()
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// request classes inside the measurement loop.
const (
	reqCritical = iota
	reqInteractive
	reqWrite
	reqBackground
)

// runOverloadCell runs mult*overloadStaticCap closed-loop clients
// against the handler for the configured duration and tallies the outcome.
func runOverloadCell(cfg OverloadConfig, arm string, mult int, handler http.Handler, bodies [][]byte) OverloadCell {
	cell := OverloadCell{Arm: arm, Multiplier: mult}
	workers := mult * overloadStaticCap

	type tally struct {
		attempts, served, shed, failed int
		critAttempts, critServed       int
		lat                            []time.Duration
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	start := time.Now()
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ta := &tallies[wk]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wk)*7919))
			var rd bytes.Reader
			sink := &sinkResponse{header: make(http.Header)}
			// Every worker is its own principal, as every deployed client
			// host is.
			addr := fmt.Sprintf("10.%d.%d.%d:4000", wk>>16&0xff, wk>>8&0xff, wk&0xff)
			for !stop.Load() {
				var class int
				switch p := rng.Float64(); {
				case p < overloadCriticalFrac:
					class = reqCritical
				case p < overloadCriticalFrac+overloadInteractiveFrac:
					class = reqInteractive
				case p < overloadCriticalFrac+overloadInteractiveFrac+overloadWriteFrac:
					class = reqWrite
				default:
					class = reqBackground
				}
				var req *http.Request
				switch class {
				case reqWrite:
					req = httptest.NewRequest(http.MethodGet, wire.PathChallenge, nil)
				case reqBackground:
					req = httptest.NewRequest(http.MethodGet, wire.PathStats, nil)
				default:
					rd.Reset(bodies[rng.Intn(len(bodies))])
					req = httptest.NewRequest(http.MethodPost, wire.PathLookup, nil)
					req.Header.Set("Content-Type", wire.ContentType)
					req.Body = io.NopCloser(&rd)
					if class == reqCritical {
						req.Header.Set(wire.HeaderPriority, wire.PriorityCritical)
					}
				}
				req.RemoteAddr = addr
				sink.code = http.StatusOK
				sink.n = 0
				t0 := time.Now()
				handler.ServeHTTP(sink, req)
				dt := time.Since(t0)

				ta.attempts++
				if class == reqCritical {
					ta.critAttempts++
				}
				switch {
				case sink.code/100 == 2:
					ta.served++
					ta.lat = append(ta.lat, dt)
					if class == reqCritical {
						ta.critServed++
					}
				case sink.code == http.StatusTooManyRequests:
					ta.shed++
				default:
					ta.failed++
				}
				time.Sleep(overloadThinkTime)
			}
		}(wk)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	var lat []time.Duration
	for i := range tallies {
		ta := &tallies[i]
		cell.Attempts += ta.attempts
		cell.Served += ta.served
		cell.Shed += ta.shed
		cell.Failed += ta.failed
		cell.CriticalAttempts += ta.critAttempts
		cell.CriticalServed += ta.critServed
		lat = append(lat, ta.lat...)
	}
	cell.Offered = float64(cell.Attempts) / wall.Seconds()
	cell.Goodput = float64(cell.Served) / wall.Seconds()
	if cell.CriticalAttempts > 0 {
		cell.CriticalSuccess = float64(cell.CriticalServed) / float64(cell.CriticalAttempts)
	}
	cell.P50, cell.P99, _ = latencyQuantiles(lat)
	return cell
}

// String renders E20.
func (r OverloadResult) String() string {
	var b strings.Builder
	b.WriteString("E20 — adaptive admission: priority-aware overload survival\n")
	fmt.Fprintf(&b, "handler cost: %s flat up to %d concurrent, quadratic beyond; both arms capped at %d;\n",
		overloadServiceTime, overloadKnee, overloadStaticCap)
	fmt.Fprintf(&b, "mix: %.0f%% critical / %.0f%% interactive lookups, %.0f%% writes, rest background; %s per cell\n\n",
		overloadCriticalFrac*100, overloadInteractiveFrac*100, overloadWriteFrac*100, r.Config.Duration)
	for _, c := range r.Cells {
		extra := ""
		if c.Arm == "adaptive" {
			extra = fmt.Sprintf("  limit %d, brownout %s", c.FinalLimit, c.Brownout)
		}
		fmt.Fprintf(&b, "  %2dx %-8s offered %7.0f/s  goodput %7.0f/s  p50 %8s  p99 %8s  critical %5.1f%%%s\n",
			c.Multiplier, c.Arm, c.Offered, c.Goodput,
			c.P50.Round(100*time.Microsecond), c.P99.Round(100*time.Microsecond),
			c.CriticalSuccess*100, extra)
	}
	if st, ad := r.cellPair(slices.Max(r.Config.Multipliers)); st != nil && ad != nil {
		fmt.Fprintf(&b, "\nat %dx offered load the static cap thrashes past its knee while the adaptive limiter\n", st.Multiplier)
		fmt.Fprintf(&b, "backs off to it and spends the remaining capacity by priority: goodput %.0f/s vs %.0f/s,\n",
			ad.Goodput, st.Goodput)
		fmt.Fprintf(&b, "admitted p99 %s vs %s, critical-lookup success %.1f%% vs %.1f%%.\n",
			ad.P99.Round(100*time.Microsecond), st.P99.Round(100*time.Microsecond),
			ad.CriticalSuccess*100, st.CriticalSuccess*100)
	}
	return b.String()
}
