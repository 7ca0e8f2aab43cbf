package simulation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/replication"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
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

// DefaultScrubRepairConfig is the full-scale E25 run.
func DefaultScrubRepairConfig(seed int64) ScrubRepairConfig {
	return ScrubRepairConfig{
		Seed:     seed,
		SeedKeys: 32, TailKeys: 6,
		Writers: 4, OpsPerWriter: 40,
		CompactEvery: 8,
		PerfCommits:  400, PerfCompactEvery: 16, CompactDelay: 20 * time.Millisecond,
	}
}

// QuickScrubRepairConfig is the reduced-scale E25 run.
func QuickScrubRepairConfig(seed int64) ScrubRepairConfig {
	return ScrubRepairConfig{
		Seed:     seed,
		SeedKeys: 16, TailKeys: 4,
		Writers: 3, OpsPerWriter: 15,
		CompactEvery: 6,
		PerfCommits:  120, PerfCompactEvery: 12, CompactDelay: 25 * time.Millisecond,
	}
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

// RunScrubRepair executes E25.
func RunScrubRepair(cfg ScrubRepairConfig) (ScrubRepairResult, error) {
	res := ScrubRepairResult{Config: cfg}
	for _, target := range []string{"snapshot", "wal"} {
		for _, phase := range []string{"idle", "commit-load", "compaction"} {
			cell, err := runScrubRepairCell(cfg, target, phase)
			if err != nil {
				return res, fmt.Errorf("cell %s/%s: %w", target, phase, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	var err error
	res.Perf, err = runScrubPerf(cfg)
	return res, err
}

// cellBitSeed derives a deterministic per-cell seed so every cell rots
// a different, reproducible bit.
func cellBitSeed(seed int64, target, phase string) int64 {
	h := seed
	for _, c := range target + "/" + phase {
		h = h*131 + int64(c)
	}
	return h
}

// runScrubRepairCell drives one grid cell: build durable history, let a
// healthy replica catch up, flip one seeded bit at rest in the target
// file during the configured phase, scrub, then repair from the replica
// and verify nothing acknowledged was lost.
func runScrubRepairCell(cfg ScrubRepairConfig, target, phase string) (ScrubRepairCell, error) {
	cell := ScrubRepairCell{Target: target, Phase: phase}
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "e25-cell-*")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(dir)

	opts := storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: -1}
	if phase == "compaction" {
		opts.CompactEvery = cfg.CompactEvery
	}
	db, err := storedb.Open(opts)
	if err != nil {
		return cell, err
	}
	defer db.Close()

	// Every acknowledged key is recorded: the post-repair check knows
	// exactly what the store promised.
	var mu sync.Mutex
	acked := map[string]bool{}
	putCell := func(key string) error {
		err := db.Update(func(tx *storedb.Tx) error {
			return tx.MustBucket("e25").Put([]byte(key), []byte("v"))
		})
		if err == nil {
			mu.Lock()
			acked[key] = true
			mu.Unlock()
		}
		return err
	}

	for i := 0; i < cfg.SeedKeys; i++ {
		if err := putCell(fmt.Sprintf("seed-%03d", i)); err != nil {
			return cell, err
		}
	}
	if phase == "compaction" {
		// The seed writes crossed the auto-compaction threshold; the
		// flip must land on files the background compactor produced, so
		// first prove it ran.
		deadline := time.Now().Add(10 * time.Second)
		for db.SnapSeq() == 0 {
			if time.Now().After(deadline) {
				return cell, fmt.Errorf("background compactor never landed a snapshot")
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Then settle the files: a manual Compact serializes on
		// compactMu with any compaction in flight, and the loop keeps a
		// WAL frame alive past any stale compactor signal that fires
		// afterwards (one extra key is below the next threshold, so no
		// new signal is generated).
		for extra := 0; ; extra++ {
			if err := db.Compact(); err != nil {
				return cell, err
			}
			time.Sleep(5 * time.Millisecond)
			if err := putCell(fmt.Sprintf("tail-%03d", extra)); err != nil {
				return cell, err
			}
			time.Sleep(5 * time.Millisecond)
			if fi, err := os.Stat(filepath.Join(dir, "WAL")); err == nil && fi.Size() > 0 {
				break
			}
			if extra > 2*cfg.CompactEvery {
				return cell, fmt.Errorf("could not keep a WAL tail past the compactor")
			}
		}
	} else {
		if err := db.Compact(); err != nil {
			return cell, err
		}
		for i := 0; i < cfg.TailKeys; i++ {
			if err := putCell(fmt.Sprintf("tail-%03d", i)); err != nil {
				return cell, err
			}
		}
	}

	// The healthy peer: an in-memory replica pulling from this
	// primary's publisher endpoints, exactly the production topology.
	pub := replication.NewPublisher(db)
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathReplSnapshot, pub.ServeSnapshot)
	mux.HandleFunc(wire.PathReplWAL, pub.ServeWAL)
	mux.HandleFunc(wire.PathReplDigest, pub.ServeDigest)
	primaryTS := httptest.NewServer(mux)
	defer primaryTS.Close()

	rdb, err := storedb.Open(storedb.Options{})
	if err != nil {
		return cell, err
	}
	defer rdb.Close()
	rdb.SetReplicaMode(true)
	rep := &replication.Replica{DB: rdb, Primary: primaryTS.URL, ID: "e25-replica"}

	rpub := replication.NewPublisher(rdb)
	rmux := http.NewServeMux()
	rmux.HandleFunc(wire.PathReplSnapshot, rpub.ServeSnapshot)
	rmux.HandleFunc(wire.PathReplWAL, rpub.ServeWAL)
	rmux.HandleFunc(wire.PathReplDigest, rpub.ServeDigest)
	replicaTS := httptest.NewServer(rmux)
	defer replicaTS.Close()

	syncUntilEqual := func(timeout time.Duration) error {
		deadline := time.Now().Add(timeout)
		for {
			_ = rep.Sync(ctx)
			ps, pd := db.ChainPosition()
			rs, rd := rdb.ChainPosition()
			if ps == rs && pd == rd {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica never caught up: primary %d/%016x replica %d/%016x", ps, pd, rs, rd)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := syncUntilEqual(10 * time.Second); err != nil {
		return cell, err
	}

	// Commit-load phase: writers and the replica's puller stay live
	// while the bit rots and the scrub runs.
	var refused, unexpected int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if phase == "commit-load" {
		for w := 0; w < cfg.Writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < cfg.OpsPerWriter; i++ {
					select {
					case <-stop:
						return
					default:
					}
					err := putCell(fmt.Sprintf("w%02d-%03d", w, i))
					switch {
					case err == nil:
					case errors.Is(err, storedb.ErrStorageCorrupt):
						atomic.AddInt64(&refused, 1)
						return
					default:
						atomic.AddInt64(&unexpected, 1)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = rep.Sync(ctx)
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}

	// The seeded bit flip, at rest: FlipFileBit reduces the position
	// modulo the file's bit length, so one draw covers any file size.
	fileName := "SNAPSHOT"
	if target == "wal" {
		fileName = "WAL"
	}
	rng := rand.New(rand.NewSource(cellBitSeed(cfg.Seed, target, phase)))
	cell.FlipBit = rng.Int63()
	if err := storedb.FlipFileBit(filepath.Join(dir, fileName), cell.FlipBit); err != nil {
		close(stop)
		wg.Wait()
		return cell, fmt.Errorf("flip %s: %w", fileName, err)
	}

	srep, serr := db.Scrub(ctx)
	cell.SnapshotBlocks, cell.WALFrames = srep.SnapshotBlocks, srep.WALFrames
	cell.Detected = serr != nil && errors.Is(serr, storedb.ErrCorrupt) && !srep.Clean
	cell.Unit = srep.Unit

	// The degraded contract: reads serve the in-memory tree, writes
	// refuse with the distinct corrupt error.
	verr := db.View(func(tx *storedb.Tx) error {
		_, ok := tx.MustBucket("e25").Get([]byte("seed-000"))
		cell.ReadsServed = ok
		return nil
	})
	if verr != nil {
		cell.ReadsServed = false
	}
	werr := db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("e25").Put([]byte("probe"), []byte("v"))
	})
	cell.WritesShed = errors.Is(werr, storedb.ErrStorageCorrupt)

	if phase == "commit-load" {
		close(stop)
		wg.Wait()
	}
	cell.Refused = int(atomic.LoadInt64(&refused))
	if n := atomic.LoadInt64(&unexpected); n > 0 {
		return cell, fmt.Errorf("%d unexpected writer errors", n)
	}
	mu.Lock()
	cell.Acked = len(acked)
	mu.Unlock()

	if !cell.Detected {
		return cell, nil // the tally surfaces the miss; nothing to repair
	}

	// Repair: the corrupt primary still serves its replication
	// endpoints from memory, so the replica catches up to the exact
	// acknowledged position before the repairer quarantines and
	// restores.
	if err := syncUntilEqual(10 * time.Second); err != nil {
		return cell, err
	}
	repairer := &replication.Repairer{DB: db, Source: replicaTS.URL, ID: "e25", Poll: 5 * time.Millisecond}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := repairer.Repair(rctx); err != nil {
		cell.RepairErr = err.Error()
		return cell, nil
	}
	cell.Repaired = true

	ps, pd := db.ChainPosition()
	rs, rd := rdb.ChainPosition()
	cell.Converged = ps == rs && pd == rd
	verr = db.View(func(tx *storedb.Tx) error {
		b := tx.MustBucket("e25")
		mu.Lock()
		defer mu.Unlock()
		for key := range acked {
			if _, ok := b.Get([]byte(key)); !ok {
				cell.LostAcked++
			}
		}
		return nil
	})
	if verr != nil {
		return cell, verr
	}
	cell.Recovered = db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("e25").Put([]byte("post-repair"), []byte("v"))
	}) == nil
	return cell, nil
}

// runScrubPerf measures sequential commit latency with a slow modeled
// snapshot device while the background compactor runs.
func runScrubPerf(cfg ScrubRepairConfig) (ScrubPerfRun, error) {
	run := ScrubPerfRun{Commits: cfg.PerfCommits}
	dir, err := os.MkdirTemp("", "e25-perf-*")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)

	db, err := storedb.Open(storedb.Options{Dir: dir, SyncWrites: true, CompactEvery: cfg.PerfCompactEvery})
	if err != nil {
		return run, err
	}
	defer db.Close()

	// The modeled device: every snapshot fsync costs CompactDelay. The
	// WAL keeps its native speed — the point is what compaction alone
	// does to commit tails.
	plan := storedb.NewFaultPlan(cfg.Seed, &storedb.FaultRule{
		Op: storedb.FaultSync, Label: "snapshot", Delay: cfg.CompactDelay,
	})
	plan.Install()
	defer storedb.UninstallFaults()

	val := make([]byte, 100)
	lats := make([]time.Duration, cfg.PerfCommits)
	for i := range lats {
		key := fmt.Sprintf("perf-%05d", i)
		start := time.Now()
		err := db.Update(func(tx *storedb.Tx) error {
			return tx.MustBucket("perf").Put([]byte(key), val)
		})
		lats[i] = time.Since(start)
		if err != nil {
			return run, err
		}
	}
	storedb.UninstallFaults()

	// The compactor is still absorbing the delayed snapshot syncs the
	// commits never waited for; let it finish at least one cycle so the
	// run reports real compactions.
	deadline := time.Now().Add(10 * time.Second)
	for db.Health().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	run.P50 = lats[len(lats)/2]
	run.P99 = lats[len(lats)*99/100]
	run.Max = lats[len(lats)-1]
	run.Compactions = db.Health().Compactions
	return run, nil
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
