package simulation

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
)

// Experiment E24 — production telemetry: what observability costs, and
// what it buys. The serving stack now meters itself — per-endpoint
// latency histograms, wire and cache and storage counters, a ring of
// recent slow or errored requests — all exposed as Prometheus text on
// /metrics. E24 answers the two questions that decide whether such
// instrumentation belongs on by default.
//
// Cost: the E23 binary-lookup hot path replayed over loopback HTTP
// twice, telemetry on vs compiled out (DisableTelemetry), interleaved
// trials, best-of per arm. The claim: under 3% throughput cost — the
// hot-path instrument is an array index and a few atomic adds.
//
// Value: an injected storage incident (a WAL fsync EIO mid-write-burst
// flips the store into its sticky fail-safe) diagnosed purely from
// fetched /metrics and /trace text — no logs, no debugger, no process
// access. The scrape must show the failed-storage gauge up, the fsync
// counter stalled, write 5xxs rising while reads keep serving, and the
// trace ring must name the failing endpoint.

// TelemetryConfig sizes E24.
type TelemetryConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int

	// Lookups per trial; Workers concurrent clients; Trials alternate
	// between the arms, best-of each.
	Lookups int
	Workers int
	Trials  int

	// IncidentWrites is the vote count per incident phase (healthy,
	// failing, still-failing), and IncidentLookups the reads driven
	// alongside to show the read path staying up.
	IncidentWrites  int
	IncidentLookups int
}

// TelemetryArm is one instrumentation setting's measured hot path.
type TelemetryArm struct {
	Name       string
	Lookups    int
	Trials     int
	Throughput float64 // best-of-trials lookups per second
	P99        time.Duration
}

// TelemetryIncident is the metrics-only diagnosis of the injected
// storage failure. Every bool is a fact read out of scraped /metrics
// or /trace text, never out of process state.
type TelemetryIncident struct {
	HealthyVotes int // phase 1 votes, all acked
	FailedVotes  int // phase 2+3 votes, all refused
	LookupsOK    int // reads served while storage was failed

	StorageFailedSeen bool    // reputation_storedb_failed hit 1
	FsyncsStalled     bool    // wal fsync counter flat across the failing phases
	VoteErrors5xx     float64 // vote-endpoint 5xx delta during the incident
	LookupsServed2xx  float64 // lookup-endpoint 2xx delta during the incident
	TraceShowsVote503 bool    // /trace names /api/vote with status=503
	Recovered         bool    // after reopen: gauge back to 0 and a write acked
}

// Diagnosed reports whether the scrape alone told the whole story.
func (i TelemetryIncident) Diagnosed() bool {
	return i.StorageFailedSeen && i.FsyncsStalled && i.VoteErrors5xx > 0 &&
		i.LookupsServed2xx > 0 && i.TraceShowsVote503
}

// TelemetryResult reports E24.
type TelemetryResult struct {
	Config TelemetryConfig
	On     TelemetryArm
	Off    TelemetryArm

	// OverheadPct is the throughput cost of telemetry: the minimum
	// same-trial gap between the stripped and instrumented arms across
	// the interleaved pairs (negative when "on" won its best pair).
	OverheadPct float64

	Incident TelemetryIncident
}

// RunTelemetry executes E24.
func RunTelemetry(cfg TelemetryConfig) (TelemetryResult, error) {
	res := TelemetryResult{Config: cfg}
	res.On = TelemetryArm{Name: "telemetry on", Lookups: cfg.Lookups, Trials: cfg.Trials}
	res.Off = TelemetryArm{Name: "telemetry off (ablation)", Lookups: cfg.Lookups, Trials: cfg.Trials}

	// Both arms get the identical build — same seed, same catalog, every
	// item looked up once, same pick sequence — differing only in
	// whether the server carries its instrumentation.
	arms := []*TelemetryArm{&res.On, &res.Off}
	tiers := make([]*Tier, len(arms))
	var metas []core.SoftwareMeta
	for i := range arms {
		t, err := NewTier(TierConfig{
			Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, VotesPerAgent: cfg.VotesPerAgent,
			Server: server.Config{AdmissionControl: true, DisableTelemetry: i == 1},
		})
		if err != nil {
			return res, err
		}
		defer t.Close()
		tiers[i] = t
		if metas, err = t.warm(); err != nil {
			return res, err
		}
	}
	picks := hotColdPicks(cfg.Seed+24, cfg.Lookups, len(metas))

	// Interleaved trials: each (on, off) pair runs back to back, so the
	// two passes of a pair share the same machine weather. The reported
	// arms are best-of; the overhead is the minimum same-pair gap — a
	// lucky run in one arm cannot fake a cost, while a real
	// instrumentation regression shows up in every pair.
	res.OverheadPct = 100
	for trial := 0; trial < cfg.Trials; trial++ {
		var tputs [2]float64
		for i, arm := range arms {
			tput, p99, err := telemetryTrial(cfg, tiers[i], metas, picks)
			if err != nil {
				return res, fmt.Errorf("%s: %w", arm.Name, err)
			}
			tputs[i] = tput
			if tput > arm.Throughput {
				arm.Throughput = tput
				arm.P99 = p99
			}
		}
		if tputs[1] > 0 {
			if gap := (tputs[1] - tputs[0]) / tputs[1] * 100; gap < res.OverheadPct {
				res.OverheadPct = gap
			}
		}
	}

	var err error
	res.Incident, err = runTelemetryIncident(cfg)
	return res, err
}

// telemetryTrial runs one timed pass of the binary-lookup workload and
// returns (lookups/s, p99). Every lookup must succeed — an arm that
// sheds is not measuring the same work.
func telemetryTrial(cfg TelemetryConfig, t *Tier, metas []core.SoftwareMeta, picks []int) (float64, time.Duration, error) {
	tr := client.NewTransport()
	defer tr.CloseIdleConnections()
	api := client.NewAPI(t.Endpoints()[0], t.Client("client", tr))
	api.EnableBinaryProtocol()

	ctx := context.Background()
	lat, failed, wall := closedLoop(cfg.Workers, cfg.Lookups, func(_, c int) int {
		if _, err := api.Lookup(ctx, metas[picks[c]]); err != nil {
			return 1
		}
		return 0
	})
	if failed > 0 {
		return 0, 0, fmt.Errorf("telemetry trial: %d lookups failed", failed)
	}
	_, p99, _ := latencyQuantiles(lat)
	return float64(cfg.Lookups) / wall.Seconds(), p99, nil
}

// e24Meta is a deterministic synthetic executable for incident writes.
func e24Meta(i int) core.SoftwareMeta {
	content := []byte(fmt.Sprintf("e24-incident-program-%d", i))
	return core.SoftwareMeta{
		ID: core.ComputeSoftwareID(content), FileName: fmt.Sprintf("e24-%d.exe", i),
		FileSize: 64, Vendor: "E24", Version: "1",
	}
}

// runTelemetryIncident injects a WAL fsync failure under a write burst
// and diagnoses it purely from scraped /metrics and /trace text.
func runTelemetryIncident(cfg TelemetryConfig) (TelemetryIncident, error) {
	inc := TelemetryIncident{}

	// A real disk-backed store with per-commit fsync, so the injected
	// fault fires on the WAL's own sync path, exactly as a dying disk
	// would present; one enrolled operator account, voting on synthetic
	// programs rather than the catalog. The incident traffic itself all
	// crosses the wire.
	t, err := NewTier(TierConfig{Seed: cfg.Seed, Programs: 1, Users: 1, Disk: &storedb.Options{SyncWrites: true}})
	if err != nil {
		return inc, err
	}
	defer t.Close()
	session := t.World.Agents[0].Session

	ctx := context.Background()
	api := client.NewAPI(t.Endpoints()[0], t.Client("client", client.NewTransport()))
	operator := t.Client("operator", nil)
	vote := func(i int) error {
		_, err := api.Vote(ctx, session, e24Meta(i), client.Rating{Score: 5})
		return err
	}
	lookups := func(n int) int {
		served := 0
		for i := 0; i < n; i++ {
			if _, err := api.Lookup(ctx, e24Meta(i%cfg.IncidentWrites)); err == nil {
				served++
			}
		}
		return served
	}
	scrape := func(path string) (string, error) {
		resp, err := operator.Get(t.Endpoints()[0] + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	// Phase 1 — healthy: every write acked.
	for i := 0; i < cfg.IncidentWrites; i++ {
		if err := vote(i); err != nil {
			return inc, fmt.Errorf("telemetry incident: healthy vote %d: %w", i, err)
		}
		inc.HealthyVotes++
	}
	inc.LookupsOK += lookups(cfg.IncidentLookups)
	sampleA, err := scrape("/metrics")
	if err != nil {
		return inc, err
	}

	// The fault: the next WAL fsync returns EIO. The store's fail-safe
	// flips it into sticky degraded mode — writes refuse, reads serve.
	storedb.NewFaultPlan(&storedb.FaultRule{
		Op: storedb.FaultSync, Label: "wal", After: 0, Count: 1, Err: storedb.ErrInjectedIO,
	}).Install()

	// Phases 2 and 3 — the incident: the burst keeps coming, every write
	// must now be refused; reads keep serving off the in-memory image. Two
	// failing bursts, so two mid-incident samples can show the fsync
	// counter flat while errors keep rising.
	var mid [2]string
	for ph := range mid {
		for i := 0; i < cfg.IncidentWrites; i++ {
			if err := vote((ph+1)*cfg.IncidentWrites + i); err == nil {
				return inc, fmt.Errorf("telemetry incident: vote acked with failed storage")
			}
			inc.FailedVotes++
		}
		inc.LookupsOK += lookups(cfg.IncidentLookups)
		if mid[ph], err = scrape("/metrics"); err != nil {
			return inc, err
		}
	}
	sampleB, sampleC := mid[0], mid[1]
	traceText, err := scrape("/trace")
	if err != nil {
		return inc, err
	}

	// The diagnosis — every conclusion below reads scraped text only.
	failedB, _ := telemetry.Sum(sampleB, "reputation_storedb_failed", nil)
	inc.StorageFailedSeen = failedB == 1

	fsyncB, okB := telemetry.Sum(sampleB, "reputation_storedb_wal_fsyncs_total", nil)
	fsyncC, okC := telemetry.Sum(sampleC, "reputation_storedb_wal_fsyncs_total", nil)
	inc.FsyncsStalled = okB && okC && fsyncB == fsyncC

	voteLabels := telemetry.Labels{{"endpoint", "vote"}, {"code", "5xx"}}
	v5a, _ := telemetry.Sum(sampleA, "reputation_http_requests_total", voteLabels)
	v5c, _ := telemetry.Sum(sampleC, "reputation_http_requests_total", voteLabels)
	inc.VoteErrors5xx = v5c - v5a

	lookLabels := telemetry.Labels{{"endpoint", "lookup"}, {"code", "2xx"}}
	l2b, _ := telemetry.Sum(sampleB, "reputation_http_requests_total", lookLabels)
	l2c, _ := telemetry.Sum(sampleC, "reputation_http_requests_total", lookLabels)
	inc.LookupsServed2xx = l2c - l2b

	inc.TraceShowsVote503 = strings.Contains(traceText, "/api/vote") &&
		strings.Contains(traceText, "status=503")

	// Recovery: clear the fault, supervised reopen, and the same scrape
	// that showed the failure shows it cleared — plus one acked write.
	storedb.UninstallFaults()
	if err := t.disk.db.Reopen(); err != nil {
		return inc, fmt.Errorf("telemetry incident: reopen: %w", err)
	}
	if err := vote(3 * cfg.IncidentWrites); err != nil {
		return inc, fmt.Errorf("telemetry incident: post-recovery vote: %w", err)
	}
	sampleD, err := scrape("/metrics")
	if err != nil {
		return inc, err
	}
	failedD, _ := telemetry.Sum(sampleD, "reputation_storedb_failed", nil)
	inc.Recovered = failedD == 0
	return inc, nil
}

// String renders E24.
func (r TelemetryResult) String() string {
	var b strings.Builder
	b.WriteString("E24 — production telemetry: overhead and metrics-only diagnosis\n")
	fmt.Fprintf(&b, "overhead: %d binary lookups/trial over %d programs via loopback HTTP, %d workers, %d interleaved trials, best-of per arm, admission control on\n\n",
		r.Config.Lookups, r.Config.Programs, r.Config.Workers, r.Config.Trials)
	row := func(a TelemetryArm) {
		fmt.Fprintf(&b, "  %-26s %9.0f lookups/s   p99 %8s\n",
			a.Name, a.Throughput, a.P99.Round(time.Microsecond))
	}
	row(r.Off)
	row(r.On)
	fmt.Fprintf(&b, "\ninstrumentation overhead: %.2f%% of throughput, minimum same-pair gap (claim: < 3%%)\n\n", r.OverheadPct)

	i := r.Incident
	b.WriteString("incident (WAL fsync EIO mid-burst, diagnosed from /metrics + /trace text only):\n")
	fmt.Fprintf(&b, "  traffic: %d healthy votes acked, %d incident votes refused, %d lookups served throughout\n",
		i.HealthyVotes, i.FailedVotes, i.LookupsOK)
	mark := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "NO"
	}
	fmt.Fprintf(&b, "  reputation_storedb_failed gauge at 1:          %s\n", mark(i.StorageFailedSeen))
	fmt.Fprintf(&b, "  wal fsync counter flat across two samples:     %s\n", mark(i.FsyncsStalled))
	fmt.Fprintf(&b, "  vote 5xx counter delta during incident:        %.0f\n", i.VoteErrors5xx)
	fmt.Fprintf(&b, "  lookup 2xx counter still rising:               %.0f\n", i.LookupsServed2xx)
	fmt.Fprintf(&b, "  /trace names /api/vote with status=503:        %s\n", mark(i.TraceShowsVote503))
	fmt.Fprintf(&b, "  diagnosed from scrapes alone:                  %s\n", mark(i.Diagnosed()))
	fmt.Fprintf(&b, "  recovered after reopen (gauge 0, write acked): %s\n", mark(i.Recovered))
	return b.String()
}
