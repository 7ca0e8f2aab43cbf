package simulation

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"softreputation/internal/storedb"
)

// Experiment E25 — self-healing storage: scrub detection and
// replica-sourced repair under seeded bit rot, and the cost of moving
// compaction off the commit path.
//
// Two claims leave this file. The detection-and-repair claim: a single
// seeded bit flip landing anywhere in either durable file (snapshot or
// WAL), in any store phase (idle, under concurrent commit load, or
// right after a background compaction), is always caught by an online
// scrub pass, never silently served; reads keep flowing while writes
// shed; and repair from a healthy replica — quarantine, snapshot
// restore, verify — loses no acknowledged write and converges
// byte-identically (digest equality at equal chain positions). The
// latency claim: with a slow modeled snapshot device, commit latency
// with the background compactor stays flat — the compaction stall
// never reaches the commit tail. (The inline on-commit numbers it
// replaced are frozen in EXPERIMENTS.md.)

// ScrubRepairConfig sizes E25.
type ScrubRepairConfig struct {
	Seed int64

	// SeedKeys writes build the history the snapshot covers; TailKeys
	// land after it so the WAL chain has frames to corrupt.
	SeedKeys int
	TailKeys int
	// Writers and OpsPerWriter size the commit-load phase's concurrent
	// workload, live while the flip and the scrub happen.
	Writers      int
	OpsPerWriter int
	// CompactEvery triggers the background compactor in the compaction
	// phase.
	CompactEvery int

	// Perf run sizing: PerfCommits sequential commits with auto
	// compaction every PerfCompactEvery, the snapshot device slowed by
	// CompactDelay per sync.
	PerfCommits      int
	PerfCompactEvery int
	CompactDelay     time.Duration
}

// ScrubRepairCell is one (target file, store phase) measurement.
type ScrubRepairCell struct {
	Target string // snapshot | wal
	Phase  string // idle | commit-load | compaction

	FlipBit int64 // seeded bit position handed to FlipFileBit
	Acked   int   // writes acknowledged before repair
	Refused int   // commit-load writes refused after detection

	Detected       bool   // scrub flagged the flip
	Unit           string // corruption unit scrub named
	SnapshotBlocks int
	WALFrames      int

	ReadsServed bool // reads kept serving from the corrupt store
	WritesShed  bool // writes refused with ErrStorageCorrupt

	Repaired  bool   // quarantine + restore-from-replica succeeded
	RepairErr string // why not, when it didn't
	LostAcked int    // acked writes missing after repair — must be 0
	Converged bool   // primary and replica digest-equal at equal seq
	Recovered bool   // post-repair write succeeded
}

// ScrubPerfRun is the commit-latency measurement.
type ScrubPerfRun struct {
	Commits       int
	P50, P99, Max time.Duration
	Compactions   uint64
}

// ScrubRepairResult reports E25.
type ScrubRepairResult struct {
	Config ScrubRepairConfig
	Cells  []ScrubRepairCell
	Perf   ScrubPerfRun
}

// RunScrubRepair executes E25: the target x phase cells, then the perf
// run, each one schedule.
func RunScrubRepair(cfg ScrubRepairConfig) (ScrubRepairResult, error) {
	res := ScrubRepairResult{Config: cfg}
	for _, target := range []string{"snapshot", "wal"} {
		for _, phase := range []string{"idle", "commit-load", "compaction"} {
			cell, err := scrubRepairCell(cfg, target, phase)
			if err != nil {
				return res, fmt.Errorf("cell %s/%s: %w", target, phase, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}

	// The perf run: sequential commits while the background compactor runs
	// on a modeled device whose every snapshot fsync costs CompactDelay (the
	// WAL keeps its speed: the point is what compaction alone does to commit
	// tails), then a wait for a compaction the commits never waited for.
	opts := storedb.Options{SyncWrites: true, CompactEvery: cfg.PerfCompactEvery}
	s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: 1, Disk: &opts}, bucket: "perf"}
	p := s.add(inject(storedb.FaultRule{Op: storedb.FaultSync, Label: "snapshot", Delay: cfg.CompactDelay}),
		put("perf-%05d", cfg.PerfCommits, 100))
	s.add(heal(), settle("", 0))
	tr, err := runSchedule(s)
	w := tr.events[p]
	if err == nil && w.acked != cfg.PerfCommits {
		err = fmt.Errorf("perf run: %d of %d commits failed", cfg.PerfCommits-w.acked, cfg.PerfCommits)
	}
	res.Perf = ScrubPerfRun{Commits: cfg.PerfCommits, Compactions: tr.health.Compactions}
	res.Perf.P50, res.Perf.P99, res.Perf.Max = latencyQuantiles(w.lats)
	return res, err
}

// scrubRepairCell runs one cell on a primary whose one in-memory replica
// is its healthy peer: history, catch-up, a seeded flip at rest in the
// target file during the phase (under commit-load, writers and the
// replica's puller stay live), scrub, a probe of the degraded contract
// (reads serve, writes refuse as corrupt), catch-up to the acknowledged
// position (a corrupt primary still serves replication from memory),
// repair, verify. A write error no step expects fails the cell.
func scrubRepairCell(cfg ScrubRepairConfig, target, phase string) (ScrubRepairCell, error) {
	cell := ScrubRepairCell{Target: target, Phase: phase}
	h := cfg.Seed // a per-cell seed, so every cell rots a different, reproducible bit
	for _, c := range target + "/" + phase {
		h = h*131 + int64(c)
	}
	cell.FlipBit = rand.New(rand.NewSource(h)).Int63()

	opts := storedb.Options{SyncWrites: true, CompactEvery: -1}
	s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: 1, Replicas: 1, Disk: &opts}, bucket: "e25"}
	s.add(put("seed-%03d", cfg.SeedKeys, 0))
	if phase == "compaction" {
		// The seed writes cross the threshold: the flip lands on files the
		// background compactor produced.
		opts.CompactEvery = cfg.CompactEvery
		s.add(settle("tail-%03d", 2*cfg.CompactEvery))
	} else {
		s.add(compact(), put("tail-%03d", cfg.TailKeys, 0))
	}
	caught := []int{s.add(catchUp())}
	li := -1
	if phase == "commit-load" {
		li = s.add(load("w%02d-%03d", cfg.Writers, cfg.OpsPerWriter, 0, true))
	}
	file := map[string]string{"snapshot": "SNAPSHOT", "wal": "WAL"}[target]
	sci := s.add(flip(file, cell.FlipBit), scrub())
	ri := s.add(read("seed-000"))
	wi := s.add(write("probe"))
	caught = append(caught, s.add(join(), catchUp()))
	rpi := s.add(repair())
	vi := s.add(verify())
	after := s.add(write("post-repair"))
	tr, err := runSchedule(s)
	if err != nil {
		return cell, err
	}

	for _, e := range tr.events {
		if e.unexpected > 0 {
			return cell, fmt.Errorf("%d unexpected writer errors", e.unexpected)
		}
	}
	for _, i := range caught {
		if err := tr.events[i].err; err != nil {
			return cell, fmt.Errorf("replica never caught up: %w", err)
		}
	}
	if li >= 0 {
		cell.Refused = tr.events[li].refused
	}
	sc, rp, v := tr.events[sci], tr.events[rpi], tr.events[vi]
	cell.SnapshotBlocks, cell.WALFrames, cell.Unit = sc.scrub.SnapshotBlocks, sc.scrub.WALFrames, sc.scrub.Unit
	cell.Detected = errors.Is(sc.err, storedb.ErrCorrupt) && !sc.scrub.Clean
	cell.ReadsServed, cell.WritesShed = tr.events[ri].read, errors.Is(tr.events[wi].err, storedb.ErrStorageCorrupt)
	cell.Acked = v.acked
	switch {
	case !cell.Detected: // the tally surfaces the miss; the repair was a no-op
	case rp.err != nil:
		cell.RepairErr = rp.err.Error()
	default:
		cell.Repaired, cell.Converged, cell.LostAcked = true, rp.converged, v.lost
		cell.Recovered = tr.events[after].err == nil
	}
	return cell, nil
}

// Undetected counts cells whose bit flip survived the scrub — the
// headline that must be zero.
func (r ScrubRepairResult) Undetected() int {
	n := 0
	for _, c := range r.Cells {
		if !c.Detected {
			n++
		}
	}
	return n
}

// TotalLostAcked sums acked-write loss through detection and repair.
func (r ScrubRepairResult) TotalLostAcked() int {
	n := 0
	for _, c := range r.Cells {
		n += c.LostAcked
	}
	return n
}

// AllRepaired reports whether every cell quarantined, restored, and
// converged byte-identically with its repair source.
func (r ScrubRepairResult) AllRepaired() bool {
	for _, c := range r.Cells {
		if !c.Repaired || !c.Converged || !c.Recovered {
			return false
		}
	}
	return true
}

func (r ScrubRepairResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E25: self-healing storage — seeded bit rot x {snapshot, wal} x {idle, commit-load, compaction}\n\n")
	fmt.Fprintf(&b, "%-9s %-12s %9s %6s %-16s %6s %6s %6s %5s %9s %9s\n",
		"target", "phase", "detected", "unit", "", "acked", "shed", "lost", "conv", "repaired", "recovered")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9s %-12s %9v %-22s %6d %6v %6d %5v %9v %9v\n",
			c.Target, c.Phase, c.Detected, c.Unit, c.Acked, c.WritesShed, c.LostAcked, c.Converged, c.Repaired, c.Recovered)
		if c.RepairErr != "" {
			fmt.Fprintf(&b, "          repair error: %s\n", c.RepairErr)
		}
	}
	fmt.Fprintf(&b, "\nundetected corruption: %d   acked-write loss: %d   all repaired+converged: %v\n",
		r.Undetected(), r.TotalLostAcked(), r.AllRepaired())

	fmt.Fprintf(&b, "\ncompaction off the commit path — %d commits, compact every %d, %v modeled snapshot fsync:\n",
		r.Config.PerfCommits, r.Config.PerfCompactEvery, r.Config.CompactDelay)
	fmt.Fprintf(&b, "%8s %10s %10s %10s %12s\n", "commits", "p50", "p99", "max", "compactions")
	p := r.Perf
	fmt.Fprintf(&b, "%8d %10s %10s %10s %12d\n",
		p.Commits, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond),
		p.Max.Round(time.Microsecond), p.Compactions)
	return b.String()
}
