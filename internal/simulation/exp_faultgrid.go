package simulation

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"softreputation/internal/storedb"
)

// Experiment E21 — storage fault tolerance and group-commit throughput.
//
// Two claims leave this file. The durability claim: whatever storage
// fault fires mid-stream — an fsync EIO, a write ENOSPC, a torn write,
// a failed snapshot rename, a process kill with a half-written WAL
// tail — no acknowledged write is ever lost and no failed write is
// ever resurrected; the store turns sticky read-only, and a reopen
// (live, or a cold open after a kill) restores exactly the
// acknowledged state. The throughput claim: with a realistic device
// fsync latency, the group-commit pipeline amortizes one fsync over
// many concurrent commits, so acked writes/s scales with the writer
// count while fsyncs/write drops well under 1. (The serialized
// one-fsync-per-commit numbers it replaced are frozen in
// EXPERIMENTS.md.)
//
// The grid crosses fault kinds with fire offsets so the failure lands
// at different points of the commit stream: at the first write, inside
// a commit burst, and during a compaction. Every cell asserts the same
// invariants; the perf run shares the harness but fires no faults.

// FaultGridConfig sizes E21.
type FaultGridConfig struct {
	Seed int64

	// Writers and OpsPerWriter size each cell's concurrent workload.
	Writers      int
	OpsPerWriter int
	// CompactEvery compacts after every this many acked writes, so
	// snapshot-path faults have something to hit.
	CompactEvery int
	// FireAfters are the fault fire offsets (in matching fs operations)
	// crossed with every fault kind.
	FireAfters []int

	// Perf run sizing: PerfWriters concurrent committers, PerfOps
	// commits each, with FsyncDelay modeling the device's sync cost.
	PerfWriters int
	PerfOps     int
	FsyncDelay  time.Duration
}

// DefaultFaultGridConfig is the full-scale E21 run.
func DefaultFaultGridConfig(seed int64) FaultGridConfig {
	return FaultGridConfig{
		Seed:    seed,
		Writers: 8, OpsPerWriter: 30, CompactEvery: 48,
		FireAfters:  []int{0, 3, 9},
		PerfWriters: 16, PerfOps: 40, FsyncDelay: time.Millisecond,
	}
}

// QuickFaultGridConfig is the reduced-scale E21 run.
func QuickFaultGridConfig(seed int64) FaultGridConfig {
	return FaultGridConfig{
		Seed:    seed,
		Writers: 4, OpsPerWriter: 15, CompactEvery: 24,
		FireAfters:  []int{0, 4},
		PerfWriters: 8, PerfOps: 25, FsyncDelay: 600 * time.Microsecond,
	}
}

// faultKind is one row of the fault grid: a scripted fault plus how the
// cell recovers from it (live reopen, or close + cold open for the
// kill arm).
type faultKind struct {
	name     string
	coldOpen bool
	rule     func(after int) *storedb.FaultRule
}

func faultKinds() []faultKind {
	return []faultKind{
		{name: "eio-wal-sync", rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultSync, Label: "wal", After: after, Count: 1, Err: storedb.ErrInjectedIO}
		}},
		{name: "enospc-wal-write", rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", After: after, Count: 1, Err: storedb.ErrInjectedNoSpace}
		}},
		{name: "torn-wal-write", rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", After: after, Count: 1, Short: 7, Err: storedb.ErrInjectedIO}
		}},
		{name: "eio-snapshot-sync", rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultSync, Label: "snapshot", After: after / 3, Count: 1, Err: storedb.ErrInjectedIO}
		}},
		{name: "eio-rename", rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultRename, After: after / 3, Count: 1, Err: storedb.ErrInjectedIO}
		}},
		// The kill arm: a torn WAL tail (the on-disk state a power cut
		// mid-append leaves behind) followed by a cold open instead of a
		// live reopen — recovery must truncate the tail and keep every
		// acked frame.
		{name: "kill-torn-tail", coldOpen: true, rule: func(after int) *storedb.FaultRule {
			return &storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", After: after, Count: 1, Short: 3, Err: storedb.ErrInjectedIO}
		}},
	}
}

// FaultGridCell is one (fault kind, fire offset) measurement.
type FaultGridCell struct {
	Kind      string
	FireAfter int

	Acked       int  // writes acknowledged to their committer
	Refused     int  // writes refused (ErrStorageFailed or the faulted error)
	Unexpected  int  // writer errors that were not a legitimate refusal
	Fired       int  // fault rules that actually fired
	LostAcked   int  // acked writes missing after recovery — must be 0
	Resurrected int  // refused writes present after recovery — must be 0
	Recovered   bool // post-recovery write succeeded
}

// FaultGridPerfRun is the group-commit throughput measurement.
type FaultGridPerfRun struct {
	Writes     int
	Elapsed    time.Duration
	WritesPerS float64
	Fsyncs     uint64
	FsyncsPerW float64 // fsyncs per acked write — the amortization headline
	GroupDepth float64 // mean commits per WAL write
}

// FaultGridResult reports E21.
type FaultGridResult struct {
	Config FaultGridConfig
	Cells  []FaultGridCell
	Perf   FaultGridPerfRun
}

// RunFaultGrid executes E21.
func RunFaultGrid(cfg FaultGridConfig) (FaultGridResult, error) {
	res := FaultGridResult{Config: cfg}
	for _, kind := range faultKinds() {
		for _, after := range cfg.FireAfters {
			cell, err := runFaultCell(cfg, kind, after)
			if err != nil {
				return res, fmt.Errorf("cell %s/after=%d: %w", kind.name, after, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	var err error
	res.Perf, err = runFaultGridPerf(cfg)
	return res, err
}

// runFaultCell drives one grid cell: concurrent writers against a
// fresh store, one scripted fault mid-stream, recovery, verification.
func runFaultCell(cfg FaultGridConfig, kind faultKind, after int) (FaultGridCell, error) {
	cell := FaultGridCell{Kind: kind.name, FireAfter: after}
	dir, err := os.MkdirTemp("", "e21-grid-*")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(dir)

	// Auto-compaction is off and the writer that lands every
	// CompactEvery-th ack calls Compact itself, which keeps the grid
	// deterministic: the snapshot-path faults must fire inside the
	// scripted workload, not whenever a background goroutine happens to
	// get scheduled. (Experiment E25 covers the background-compactor
	// interplay.)
	opts := storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: -1}
	db, err := storedb.Open(opts)
	if err != nil {
		return cell, err
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()

	plan := storedb.NewFaultPlan(cfg.Seed, kind.rule(after))
	plan.Install()
	defer storedb.UninstallFaults()

	// Concurrent writers: every committer records its own verdict, so
	// the post-recovery check knows exactly which keys were promised.
	var mu sync.Mutex
	acked := map[string]bool{}
	refused := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.OpsPerWriter; i++ {
				key := fmt.Sprintf("w%02d-op%03d", w, i)
				err := db.Update(func(tx *storedb.Tx) error {
					return tx.MustBucket("grid").Put([]byte(key), []byte("v"))
				})
				mu.Lock()
				compact := false
				switch {
				case err == nil:
					acked[key] = true
					compact = len(acked)%cfg.CompactEvery == 0
				case errorsIsRefusal(err):
					refused[key] = true
				default:
					refused[key] = true
					cell.Unexpected++
				}
				mu.Unlock()
				if compact {
					// A failed compaction leaves the store sticky-failed;
					// the next writers' refusals record that.
					_ = db.Compact()
				}
			}
		}(w)
	}
	wg.Wait()
	storedb.UninstallFaults()
	cell.Acked, cell.Refused, cell.Fired = len(acked), len(refused), plan.Fired()

	// Recovery: the kill arm abandons the live handle (the process
	// died) and opens cold from the on-disk state; every other arm uses
	// the supervised reopen path.
	if kind.coldOpen {
		db.Close()
		closed = true
		db, err = storedb.Open(opts)
		if err != nil {
			return cell, fmt.Errorf("cold open after kill: %w", err)
		}
		closed = false
	} else if db.Health().Failed {
		if err := db.Reopen(); err != nil {
			return cell, fmt.Errorf("reopen: %w", err)
		}
	}

	// Verification: acked writes all present, refused writes all
	// absent, and the store accepts new writes again.
	verr := db.View(func(tx *storedb.Tx) error {
		b := tx.MustBucket("grid")
		for key := range acked {
			if _, ok := b.Get([]byte(key)); !ok {
				cell.LostAcked++
			}
		}
		for key := range refused {
			if _, ok := b.Get([]byte(key)); ok {
				cell.Resurrected++
			}
		}
		return nil
	})
	if verr != nil {
		return cell, verr
	}
	cell.Recovered = db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("grid").Put([]byte("post-recovery"), []byte("v"))
	}) == nil
	return cell, nil
}

// runFaultGridPerf measures acked commit throughput with a modeled
// device fsync latency — the cost group commit exists to amortize.
func runFaultGridPerf(cfg FaultGridConfig) (FaultGridPerfRun, error) {
	var run FaultGridPerfRun
	dir, err := os.MkdirTemp("", "e21-perf-*")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)

	db, err := storedb.Open(storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: -1})
	if err != nil {
		return run, err
	}
	defer db.Close()

	plan := storedb.NewFaultPlan(cfg.Seed, &storedb.FaultRule{
		Op: storedb.FaultSync, Label: "wal", Delay: cfg.FsyncDelay,
	})
	plan.Install()
	defer storedb.UninstallFaults()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.PerfWriters)
	for w := 0; w < cfg.PerfWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.PerfOps; i++ {
				key := fmt.Sprintf("w%02d-op%03d", w, i)
				if err := db.Update(func(tx *storedb.Tx) error {
					return tx.MustBucket("perf").Put([]byte(key), []byte("v"))
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return run, err
	}
	storedb.UninstallFaults()

	h := db.Health()
	run.Writes = cfg.PerfWriters * cfg.PerfOps
	run.WritesPerS = float64(run.Writes) / run.Elapsed.Seconds()
	run.Fsyncs = h.Fsyncs
	if run.Writes > 0 {
		run.FsyncsPerW = float64(h.Fsyncs) / float64(run.Writes)
	}
	if h.Groups > 0 {
		run.GroupDepth = float64(h.Batches) / float64(h.Groups)
	}
	return run, nil
}

// TotalLostAcked sums acked-write loss over the grid — the headline
// that must be zero.
func (r FaultGridResult) TotalLostAcked() int {
	n := 0
	for _, c := range r.Cells {
		n += c.LostAcked
	}
	return n
}

// TotalResurrected sums refused writes that reappeared after recovery.
func (r FaultGridResult) TotalResurrected() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Resurrected
	}
	return n
}

func (r FaultGridResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E21: storage fault grid — %d writers x %d ops per cell, fire offsets %v\n\n",
		r.Config.Writers, r.Config.OpsPerWriter, r.Config.FireAfters)
	fmt.Fprintf(&b, "%-18s %6s %6s %8s %6s %6s %6s %10s\n",
		"fault", "after", "acked", "refused", "fired", "lost", "resur", "recovered")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %6d %6d %8d %6d %6d %6d %10v\n",
			c.Kind, c.FireAfter, c.Acked, c.Refused, c.Fired, c.LostAcked, c.Resurrected, c.Recovered)
	}
	unexpected := 0
	for _, c := range r.Cells {
		unexpected += c.Unexpected
	}
	fmt.Fprintf(&b, "\ntotal acked-write loss: %d   resurrected writes: %d   unexpected errors: %d\n",
		r.TotalLostAcked(), r.TotalResurrected(), unexpected)

	fmt.Fprintf(&b, "\ngroup commit — %d writers x %d commits, %v modeled fsync:\n",
		r.Config.PerfWriters, r.Config.PerfOps, r.Config.FsyncDelay)
	fmt.Fprintf(&b, "%8s %12s %10s %12s %12s\n",
		"writes", "writes/s", "fsyncs", "fsyncs/write", "group-depth")
	p := r.Perf
	fmt.Fprintf(&b, "%8d %12.0f %10d %12.3f %12.1f\n",
		p.Writes, p.WritesPerS, p.Fsyncs, p.FsyncsPerW, p.GroupDepth)
	return b.String()
}

// errorsIsRefusal reports whether a writer error is one of the two
// legitimate refusals a faulted store hands out.
func errorsIsRefusal(err error) bool {
	return errors.Is(err, storedb.ErrStorageFailed) ||
		errors.Is(err, storedb.ErrInjectedIO) ||
		errors.Is(err, storedb.ErrInjectedNoSpace)
}
