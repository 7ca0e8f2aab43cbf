//go:build linux

package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
)

// runConfig is what one benchmark run is asked to do.
type runConfig struct {
	seed    uint64
	window  time.Duration // timed window, split into subWindows parts
	sz      sizes
	trace   bool   // also produce the per-layer numbers
	ledgerN int    // logical operations per ledger pass (trace only)
	bin     string // built reputationd
	workDir string // scratch space for data dirs and daemon logs
	outDir  string // where the span file goes (trace only)
}

// runResult is one workload's outcome.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Metrics   metricSet `json:"metrics"`
	// notes are human-readable findings printed with the result:
	// failures, the crash check's verdict, the ledger table.
	notes []string
}

func (r *runResult) notef(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// live is a booted daemon with a logged-in generator in front of it.
type live struct {
	d       *daemon
	counter *wireCounter
	hc      *http.Client // the generator's counted client
	tgt     target
	dataDir string
}

// setUp seeds a data dir, boots the daemon on it, logs every account
// in and warms the daemon up with the first warmOps requests of each
// worker's stream. The caller's goroutine must be locked to its OS
// thread (see startDaemon) and must stop the returned daemon.
func setUp(ctx context.Context, cfg *runConfig, cat *catalogue, wl *workload, runDir string) (*live, seedStats, phase, error) {
	var warm phase
	dataDir := filepath.Join(runDir, "data")
	seeded, err := seedDataDir(dataDir, cat)
	if err != nil {
		return nil, seeded, warm, err
	}
	d, err := startDaemon(cfg.bin, dataDir, filepath.Join(runDir, "reputationd.log"))
	if err != nil {
		return nil, seeded, warm, err
	}
	lv := &live{d: d, counter: &wireCounter{}, dataDir: dataDir}
	lv.hc = newCountedClient(lv.counter)
	lv.tgt.api = newAPI(d.base, lv.hc, wl.binary)
	if err := d.awaitHealthy(ctx, lv.tgt.api); err != nil {
		d.stop(syscall.SIGKILL)
		return nil, seeded, warm, err
	}
	if lv.tgt.sessions, err = loginAll(ctx, lv.tgt.api, cat); err != nil {
		d.stop(syscall.SIGKILL)
		return nil, seeded, warm, err
	}
	if wl.scanHot {
		scan := *wl
		scan.gen = wl.scan
		warm = cat.drive(ctx, &scan, &lv.tgt, [numWorkers]int{}, wl.scanLen(cat), time.Now(), time.Time{})
	}
	streamed := cat.drive(ctx, wl, &lv.tgt, [numWorkers]int{}, wl.warmOps, time.Now(), time.Time{})
	warm.merge(&streamed)
	warm.next = streamed.next
	return lv, seeded, warm, nil
}

// newAPI returns the repo's API client in the workload's protocol.
func newAPI(base string, hc *http.Client, binary bool) *client.API {
	api := client.NewAPI(base, hc)
	if binary {
		api.EnableBinaryProtocol()
	}
	return api
}

// loginAll opens a session for every seeded account.
func loginAll(ctx context.Context, api *client.API, cat *catalogue) ([]string, error) {
	sessions := make([]string, cat.sz.users)
	for i := range sessions {
		var err error
		if sessions[i], err = api.Login(ctx, userName(i), userPassword(i)); err != nil {
			return nil, fmt.Errorf("login %s: %w", userName(i), err)
		}
	}
	return sessions, nil
}

// windowSnap is what the window's ticker reads at a sub-window boundary.
type windowSnap struct {
	cpu      float64 // daemon CPU seconds
	syscalls float64 // daemon read and write system calls
	bytes    int64   // generator wire bytes
}

// runWorkload performs one full run of wl: set-up, timed window, tear-
// down with the crash check where votes were cast, and with cfg.trace
// the per-layer measurements. An error means the run could not be
// carried out; wrong answers are reported in the result instead.
func runWorkload(ctx context.Context, cfg *runConfig, wl *workload) (*runResult, error) {
	// The daemon is killed by the kernel if the thread that forked it
	// dies; keep this goroutine on one thread until the daemon is gone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	res := &runResult{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace, Metrics: metricSet{}}
	cat := newCatalogue(cfg.seed, cfg.sz)
	runDir, err := os.MkdirTemp(cfg.workDir, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	setupStart, setupSelf := time.Now(), selfCPU()
	lv, seeded, warm, err := setUp(ctx, cfg, cat, wl, runDir)
	if err != nil {
		return nil, err
	}
	defer lv.d.stop(syscall.SIGKILL) // error paths; the normal path stops it below
	setupWallS := time.Since(setupStart).Seconds()
	daemonSetupCPU, err := procCPU(lv.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	// Set-up is reported in CPU seconds, this process's plus the
	// daemon's: on a shared host the wall time of the same set-up varies
	// 2.7x with the neighbours' load, the CPU time by a tenth.
	setupS := selfCPU() - setupSelf + daemonSetupCPU

	wd, err := measureWindow(ctx, cfg, cat, wl, lv, warm.next)
	if err != nil {
		return nil, err
	}
	// done accumulates every stretch of driving for the final tally and
	// the crash check; used are the paper_mix stream positions spent.
	done, used := warm, [numWorkers]int{}
	done.merge(&wd.timed)
	m := res.Metrics
	m.set("setup_s", setupS, 1)
	m.set("setup_wall_s", setupWallS, 1)
	m.set("server.aggregate_full_s", seeded.aggregateFullS, 1)
	m.set("storedb.disk_bytes_per_rating", float64(seeded.diskBytes)/float64(seeded.ratings), seeded.ratings)
	ws, err := wd.metrics(m, cfg.window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	res.notef("generator: %d connections opened since set-up began, for %d workers", lv.counter.dials.Load(), numWorkers)

	// Vote latency comes from the window where the workload votes.
	// Elsewhere a traced run takes it from a short probe with the
	// paper_mix stream, so that every per-layer metric is measured on
	// every workload.
	if ws.votes > 0 {
		used = wd.timed.next
	} else if cfg.trace {
		mix, _ := findWorkload("paper_mix")
		xml := target{api: newAPI(lv.d.base, lv.hc, false), sessions: lv.tgt.sessions}
		const probeOps = 1000 // per worker: 200 votes each
		probe := cat.drive(ctx, mix, &xml, used, probeOps, time.Now(), time.Time{})
		var votes []float64
		for _, s := range probe.samples {
			if s.kind == opVote {
				votes = append(votes, float64(s.dur)/float64(time.Microsecond))
			}
		}
		m.set("vote_p50_us", summarise(votes).median, len(votes)) // summarise sorts votes
		m.set("vote_p99_us", quantile(votes, 0.99), len(votes))
		done.merge(&probe)
		used = probe.next
	}
	res.Attempted, res.Failed = done.attempted, done.failed
	if done.firstFailure != "" {
		res.notef("FAILED operation: %s", done.firstFailure)
	}
	acked := done.acked

	// Tear-down. Where votes were acknowledged the daemon is killed, not
	// asked to stop, and the data dir must still hold every one of them.
	lv.hc.CloseIdleConnections()
	sig := syscall.SIGTERM
	if len(acked) > 0 {
		sig = syscall.SIGKILL
	}
	lv.d.stop(sig)
	crashOK := true
	if len(acked) > 0 || cfg.trace {
		openStart := time.Now()
		store, err := repo.Open(storedb.Options{Dir: lv.dataDir})
		if err != nil {
			return nil, fmt.Errorf("reopen data dir after the daemon stopped: %w", err)
		}
		defer store.Close()
		m.set("storedb.open_s", time.Since(openStart).Seconds(), 1)
		if len(acked) > 0 {
			crashOK = crashCheck(res, store, cat, acked)
		}
		if cfg.trace {
			if err := runLedger(ctx, cfg, cat, wl, store, used, res); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0 && crashOK
	return res, nil
}

// windowData is everything read before, during and after one timed
// window.
type windowData struct {
	timed      phase
	snaps      []windowSnap // subWindows+1 boundary readings
	delta      scrapeDelta
	mem0, mem1 map[string]float64 // the daemon's runtime.MemStats
	genMallocs uint64             // this process's allocations
	genCPU     float64            // this process's CPU seconds
	rssMB      float64            // the daemon's VmHWM afterwards
}

// measureWindow drives wl for cfg.window from stream positions from. A
// ticker reads the daemon's CPU time, system calls and the wire byte
// count at every sub-window boundary; /metrics and MemStats are read
// before and after.
func measureWindow(ctx context.Context, cfg *runConfig, cat *catalogue, wl *workload, lv *live, from [numWorkers]int) (*windowData, error) {
	pid := lv.d.cmd.Process.Pid
	// The scrapes go over their own connection so that their bytes are
	// not the generator's.
	scraper := &http.Client{Transport: client.NewTransport()}
	defer scraper.CloseIdleConnections()
	wd := &windowData{snaps: make([]windowSnap, subWindows+1)}
	var err error
	if wd.delta.before, err = fetchScrape(ctx, scraper, lv.d.base); err != nil {
		return nil, err
	}
	if wd.mem0, err = fetchMemStats(ctx, scraper, lv.d.pprof); err != nil {
		return nil, err
	}
	readSnap := func(i int) error {
		cpu, err := procCPU(pid)
		if err != nil {
			return err
		}
		syscalls, err := procSyscalls(pid)
		wd.snaps[i] = windowSnap{cpu: cpu, syscalls: syscalls, bytes: lv.counter.bytes()}
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	self0 := selfCPU()
	if err := readSnap(0); err != nil {
		return nil, err
	}
	t0 := time.Now()
	snapErr := make(chan error, 1)
	go func() {
		var first error
		for i := 1; i <= subWindows; i++ {
			time.Sleep(time.Until(t0.Add(cfg.window * time.Duration(i) / subWindows)))
			if err := readSnap(i); err != nil && first == nil {
				first = err
			}
		}
		snapErr <- first
	}()
	wd.timed = cat.drive(ctx, wl, &lv.tgt, from, 0, t0, t0.Add(cfg.window))
	if err := <-snapErr; err != nil {
		return nil, err
	}
	wd.genCPU = selfCPU() - self0
	runtime.ReadMemStats(&ms1)
	wd.genMallocs = ms1.Mallocs - ms0.Mallocs
	if wd.mem1, err = fetchMemStats(ctx, scraper, lv.d.pprof); err != nil {
		return nil, err
	}
	if wd.delta.after, err = fetchScrape(ctx, scraper, lv.d.base); err != nil {
		return nil, err
	}
	if wd.rssMB, err = procHWM(pid); err != nil {
		return nil, err
	}
	return wd, ctx.Err()
}

// metrics derives every metric of the timed window into m. Per-
// operation costs are whole-window ratios; the sub-window series give
// their quartiles.
func (wd *windowData) metrics(m metricSet, window time.Duration) (windowStats, error) {
	ws := splitWindow(wd.timed.samples, window)
	totalOps := 0
	var cpuPerOp, bytesPerOp, syscallsPerOp []float64
	for i, n := range ws.ops {
		totalOps += n
		if n > 0 {
			a, b := wd.snaps[i], wd.snaps[i+1]
			cpuPerOp = append(cpuPerOp, (b.cpu-a.cpu)*1e6/float64(n))
			bytesPerOp = append(bytesPerOp, float64(b.bytes-a.bytes)/float64(n))
			syscallsPerOp = append(syscallsPerOp, (b.syscalls-a.syscalls)/float64(n))
		}
	}
	if totalOps == 0 {
		return ws, fmt.Errorf("no operation completed inside the window")
	}
	ops := float64(totalOps)
	first, last := wd.snaps[0], wd.snaps[subWindows]
	wholeWindow := func(name string, total float64, parts []float64) {
		s := summarise(parts)
		s.median = total / ops
		m.setSummary(name, s, totalOps)
	}
	wholeWindow("wire_bytes_per_op", float64(last.bytes-first.bytes), bytesPerOp)
	wholeWindow("server_cpu_us_per_op", (last.cpu-first.cpu)*1e6, cpuPerOp)
	wholeWindow("server_syscalls_per_op", last.syscalls-first.syscalls, syscallsPerOp)
	m.set("server_allocs_per_op", (wd.mem1["Mallocs"]-wd.mem0["Mallocs"])/ops, totalOps)
	m.set("server_alloc_bytes_per_op", (wd.mem1["TotalAlloc"]-wd.mem0["TotalAlloc"])/ops, totalOps)
	m.set("server.gc_cycles", wd.mem1["NumGC"]-wd.mem0["NumGC"], 1)
	m.set("server_rss_mb", wd.rssMB, 1)
	m.setSummary("ops_per_s", summarise(ws.opsPerS), totalOps)
	m.setSummary("lookup_p50_us", summarise(ws.lookupP50), ws.lookups)
	m.setSummary("lookup_p99_us", summarise(ws.lookupP99), ws.lookups)
	m.set("client.lookup_p999_us", ws.lookupP999, ws.lookups)
	m.set("client.allocs_per_op", float64(wd.genMallocs)/ops, totalOps)
	m.set("client.generator_cpu_us_per_op", wd.genCPU*1e6/ops, totalOps)
	if ws.votes > 0 {
		m.setSummary("vote_p50_us", summarise(ws.voteP50), ws.votes)
		m.setSummary("vote_p99_us", summarise(ws.voteP99), ws.votes)
	}
	// Always derived, so that a missing /metrics family fails every run,
	// not only traced ones.
	scrapeMetrics(m, &wd.delta, ops)
	return ws, wd.delta.err
}

// crashCheck asserts that every acknowledged vote survived the SIGKILL
// and that the repository is consistent.
func crashCheck(res *runResult, store *repo.Store, cat *catalogue, acked []ackedVote) bool {
	missing := 0
	for _, v := range acked {
		_, found, err := store.GetRating(cat.programs[v.prog].meta.ID, userName(v.user))
		if err != nil || !found {
			missing++
		}
	}
	problems, err := store.CheckIntegrity()
	ok := missing == 0 && err == nil && len(problems) == 0
	verdict := "passed"
	if !ok {
		verdict = "FAILED"
	}
	res.notef("crash check %s: SIGKILL, reopen, %d of %d acked votes present, %d integrity problems (err %v)",
		verdict, len(acked)-missing, len(acked), len(problems), err)
	res.notef("  a process kill keeps the OS page cache: this proves acked => applied, not acked => on disk")
	for i, p := range problems {
		if i == 5 {
			break
		}
		res.notef("  integrity: %s", p)
	}
	return ok
}

// scrapeMetrics derives the per-layer metrics that come from the
// daemon's /metrics delta over the timed window.
func scrapeMetrics(m metricSet, d *scrapeDelta, ops float64) {
	hits := d.counter("reputation_repcache_hits_total")
	misses := d.counter("reputation_repcache_misses_total")
	votes := d.counter("reputation_http_requests_total", "endpoint", "vote", "code", "2xx")
	m.set("repcache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	m.set("repcache.invalidations_per_vote", ratio(d.counter("reputation_repcache_invalidations_total"), votes), int(votes))
	m.set("repcache.evictions_per_op", d.counter("reputation_repcache_evictions_total")/ops, int(ops))

	admitted := d.counter("reputation_admission_requests_total", "outcome", "admitted")
	refused := d.counter("reputation_admission_requests_total", "outcome", "shed") +
		d.counter("reputation_admission_requests_total", "outcome", "throttled")
	m.set("admission.shed_frac", ratio(refused, admitted+refused), int(admitted+refused))
	m.set("admission.limit", d.gauge("reputation_admission_limit"), 1)

	var handlerS, handlerN float64
	for _, ep := range []string{"lookup", "lookup_batch", "vote"} {
		handlerS += d.counter("reputation_http_request_seconds_sum", "endpoint", ep)
		handlerN += d.counter("reputation_http_request_seconds_count", "endpoint", ep)
	}
	m.set("server.handler_us", ratio(handlerS*1e6, handlerN), int(handlerN))

	m.set("wire.binary_bytes_per_op", d.counter("reputation_wire_binary_bytes_total")/ops, int(ops))
	frames := d.counter("reputation_http_requests_total", "endpoint", "lookup_batch", "code", "2xx")
	m.set("wire.batch_entries_per_frame", ratio(d.counter("reputation_wire_batch_entries_total"), frames), int(frames))

	m.set("storedb.wal_bytes_per_vote", ratio(d.counter("reputation_storedb_wal_bytes_total"), votes), int(votes))
	m.set("storedb.compactions", d.counter("reputation_storedb_compactions_total"), 1)
}
