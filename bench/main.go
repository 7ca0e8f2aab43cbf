//go:build linux

// Command bench is the repository's benchmark (ISSUE 11, ROADMAP O1). It
// seeds a deterministic data directory from -seed, boots the real
// cmd/reputationd as a child process on a loopback port, and drives it
// through client.API from one closed-loop generator process. See
// README.md in this directory for the workload and metric catalogue.
//
//	go run ./bench -workload lookup_hot -seed 1 -seconds 8 -trace 0
//	go run ./bench -workload all -out run.json
//	go run ./bench -workload paper_mix -trace 1
//	go run ./bench -compare bench/results/baseline.json run.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadArg = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed        = flag.Uint64("seed", 1, "seed of the data dir, the request streams and the expected reports")
		seconds     = flag.Int("seconds", 8, "length of the timed window in seconds")
		trace       = flag.Int("trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
		quick       = flag.Bool("quick", false, "smoke-test sizes: 500 programs, short ledger")
		out         = flag.String("out", "", "append the results to this JSON file (the input of -compare)")
		workDir     = flag.String("work", ".bench_build", "scratch directory for the built daemon and the data dirs")
		traceDir    = flag.String("tracedir", filepath.Join("bench", "out"), "directory the span files are written to")
		compare     = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if *compare {
		err = compareMain(os.Stdout, flag.Args())
	} else {
		err = benchMain(ctx, options{
			workloads: *workloadArg, seed: *seed, seconds: *seconds, trace: *trace == 1,
			quick: *quick, out: *out, workDir: *workDir, traceDir: *traceDir,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workloads string
	seed      uint64
	seconds   int
	trace     bool
	quick     bool
	out       string
	workDir   string
	traceDir  string
}

// errIncorrect is returned when a run completed but its answers did not
// all check out; the results have been printed by then.
var errIncorrect = errors.New("a run reported failed operations or a failed check")

// benchMain builds the daemon, runs the named workloads in order and
// prints each one's metrics, ending with the one-line JSON result.
func benchMain(ctx context.Context, opt options) error {
	var wls []*workload
	if opt.workloads == "all" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else {
		for _, name := range strings.Split(opt.workloads, ",") {
			wl, ok := findWorkload(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			wls = append(wls, wl)
		}
	}
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(ctx, opt.workDir) // before any set-up clock starts
	if err != nil {
		return err
	}
	cfg := &runConfig{
		seed: opt.seed, window: time.Duration(opt.seconds) * time.Second,
		sz: fullSizes, trace: opt.trace, ledgerN: 10000,
		bin: bin, workDir: opt.workDir, outDir: opt.traceDir,
	}
	if opt.quick {
		cfg.sz, cfg.ledgerN = quickSizes, 1000
	}
	env := readEnv(opt.workDir)
	allCorrect := true
	for _, wl := range wls {
		res, err := runWorkload(ctx, cfg, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		line, err := report(os.Stdout, res, cfg, env)
		if err != nil {
			return err
		}
		if opt.out != "" {
			if err := appendResult(opt.out, env, res); err != nil {
				return err
			}
		}
		fmt.Println(line)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return errIncorrect
	}
	return nil
}

// report prints res for a reader and returns the one-line JSON result:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func report(w io.Writer, res *runResult, cfg *runConfig, env environment) (string, error) {
	part := cfg.window / subWindows
	fmt.Fprintf(w, "workload %s  seed %d  window %v = %d x %v after a warm-up of fixed length\n",
		res.Workload, res.Seed, cfg.window, subWindows, part)
	if wl, ok := findWorkload(res.Workload); ok {
		fmt.Fprintf(w, "  why: %s\n", wl.why)
	}
	fmt.Fprintf(w, "  data: %d programs (hot catalogue %d), %d users; daemon report cache %d entries\n",
		cfg.sz.programs, cfg.sz.hot, cfg.sz.users, 4096)
	fmt.Fprintf(w, "  daemon: reputationd -admission, other flags default; flush policy -sync=false (OS-buffered WAL appends, no fsync per commit)\n")
	fmt.Fprintf(w, "  generator: 1 process, closed loop, %d workers on %d keep-alive connections over the loopback interface\n", numWorkers, numWorkers)
	fmt.Fprintf(w, "  host: %s, nproc %d, GOMAXPROCS %d, %s, fs %s, commit %s\n", env.CPU, env.NProc, env.GOMAXPROCS, env.Go, env.FS, env.Commit)
	fmt.Fprintf(w, "  values are medians over the %d sub-windows (whole-window ratios for per-op costs); q1/q3 are sub-window quartiles; n is the sample count\n", subWindows)
	printDefs := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-36s %14.4f %-5s", d.name, m.Value, m.Unit)
			if m.Q1 != 0 || m.Q3 != 0 {
				fmt.Fprintf(w, "  q1 %.4f q3 %.4f", m.Q1, m.Q3)
			}
			fmt.Fprintf(w, "  n=%d\n", m.N)
		}
	}
	printDefs("end-to-end", endToEnd)
	fmt.Fprintf(w, "  %-36s %14.6f %-5s  %d failed of %d attempted\n", "fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "frac", res.Failed, res.Attempted)
	printDefs("per layer", perLayer)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}

	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.name)
		}
		line.Metrics[d.name] = lineMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// environment records where numbers were taken, so that a later reader
// knows whether two result files are comparable.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	FS         string `json:"fs"` // filesystem type under the data dirs
}

func readEnv(workDir string) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), FS: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The filesystem is that of the longest mount point containing the
	// work directory.
	abs, err := filepath.Abs(workDir)
	if data, rerr := os.ReadFile("/proc/mounts"); err == nil && rerr == nil {
		best := ""
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
				best, env.FS = mp, f[2]
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads: a flat list of
// runs. Running twice into one file records two run sets.
type resultFile struct {
	Schema int         `json:"schema"`
	Runs   []recordRun `json:"runs"`
}

type recordRun struct {
	Env environment `json:"env"`
	runResult
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, this benchmark reads schema 1", path, f.Schema)
	}
	return &f, nil
}

func appendResult(path string, env environment, res *runResult) error {
	f := &resultFile{Schema: 1}
	if _, err := os.Stat(path); err == nil {
		if f, err = loadResults(path); err != nil {
			return err
		}
	}
	f.Runs = append(f.Runs, recordRun{Env: env, runResult: *res})
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
