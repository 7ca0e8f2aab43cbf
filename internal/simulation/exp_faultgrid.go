package simulation

import (
	"fmt"
	"strings"
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
// invariants; the perf run shares the disk node but fires no faults.

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

// faultKind is one row of the fault grid: a scripted fault plus the step
// the cell recovers from it with (a live reopen, or a crash for the kill
// arm).
type faultKind struct {
	name     string
	recovery step
	rule     storedb.FaultRule
}

// at is the kind's rule firing after the offset: a third of it on the
// snapshot path, whose operations come once a compaction.
func (k faultKind) at(after int) storedb.FaultRule {
	r := k.rule
	r.After = after
	if r.Label != "wal" {
		r.After = after / 3
	}
	return r
}

var faultKinds = []faultKind{
	{name: "eio-wal-sync", recovery: reopen(), rule: storedb.FaultRule{Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO}},
	{name: "enospc-wal-write", recovery: reopen(), rule: storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", Count: 1, Err: storedb.ErrInjectedNoSpace}},
	{name: "torn-wal-write", recovery: reopen(), rule: storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", Count: 1, Short: 7, Err: storedb.ErrInjectedIO}},
	{name: "eio-snapshot-sync", recovery: reopen(), rule: storedb.FaultRule{Op: storedb.FaultSync, Label: "snapshot", Count: 1, Err: storedb.ErrInjectedIO}},
	{name: "eio-rename", recovery: reopen(), rule: storedb.FaultRule{Op: storedb.FaultRename, Count: 1, Err: storedb.ErrInjectedIO}},
	// The kill arm: a torn WAL tail (the on-disk state a power cut
	// mid-append leaves behind) followed by a cold open instead of a live
	// reopen — recovery must truncate the tail and keep every acked frame.
	{name: "kill-torn-tail", recovery: crash(), rule: storedb.FaultRule{Op: storedb.FaultWrite, Label: "wal", Count: 1, Short: 3, Err: storedb.ErrInjectedIO}},
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

// RunFaultGrid executes E21. A cell is one schedule: the fault
// installed under concurrent writers whose every verdict lands in the
// disk node's ledger, the fault removed, recovery (the kill arm crashes,
// every other arm reopens live), the ledger verified, one more write.
// Auto-compaction is off and the writers compact every CompactEvery
// acks themselves, so snapshot-path faults fire inside the scripted
// workload. (E25 covers the background compactor.)
func RunFaultGrid(cfg FaultGridConfig) (FaultGridResult, error) {
	res := FaultGridResult{Config: cfg}
	opts := storedb.Options{SyncWrites: true, CompactEvery: -1}
	for _, kind := range faultKinds {
		for _, after := range cfg.FireAfters {
			s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: 1, Disk: &opts}, bucket: "grid"}
			w := s.add(inject(kind.at(after)), load("w%02d-op%03d", cfg.Writers, cfg.OpsPerWriter, cfg.CompactEvery, false))
			v := s.add(heal(), kind.recovery, verify())
			p := s.add(write("post-recovery"))
			tr, err := runSchedule(s)
			if err != nil {
				return res, fmt.Errorf("cell %s/after=%d: %w", kind.name, after, err)
			}
			ve := tr.events[v]
			res.Cells = append(res.Cells, FaultGridCell{Kind: kind.name, FireAfter: after,
				Acked: ve.acked, Refused: ve.refused, Unexpected: tr.events[w].unexpected, Fired: tr.fired,
				LostAcked: ve.lost, Resurrected: ve.resurrected, Recovered: tr.events[p].err == nil})
		}
	}

	// The perf run: every WAL fsync costs FsyncDelay, the modeled device
	// latency group commit exists to amortize, and no fault fires.
	s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: 1, Disk: &opts}, bucket: "perf"}
	l := s.add(inject(storedb.FaultRule{Op: storedb.FaultSync, Label: "wal", Delay: cfg.FsyncDelay}),
		load("w%02d-op%03d", cfg.PerfWriters, cfg.PerfOps, 0, false))
	s.add(heal())
	tr, err := runSchedule(s)
	w, h := tr.events[l], tr.health
	if err == nil && w.acked != cfg.PerfWriters*cfg.PerfOps {
		err = fmt.Errorf("perf run: %d of %d writes failed", cfg.PerfWriters*cfg.PerfOps-w.acked, cfg.PerfWriters*cfg.PerfOps)
	}
	res.Perf = FaultGridPerfRun{Writes: w.acked, Elapsed: w.elapsed, Fsyncs: h.Fsyncs,
		WritesPerS: float64(w.acked) / w.elapsed.Seconds(), FsyncsPerW: float64(h.Fsyncs) / float64(max(w.acked, 1))}
	if h.Groups > 0 {
		res.Perf.GroupDepth = float64(h.Batches) / float64(h.Groups)
	}
	return res, err
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
	unexpected := 0
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %6d %6d %8d %6d %6d %6d %10v\n",
			c.Kind, c.FireAfter, c.Acked, c.Refused, c.Fired, c.LostAcked, c.Resurrected, c.Recovered)
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
