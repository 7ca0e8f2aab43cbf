package simulation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/replication"
	"softreputation/internal/storedb"
)

// A disk schedule is a list of steps run in order against the disk node
// of a fresh tier: E21's fault cells and group-commit run, E25's bit-rot
// cells and latency run, TestDiskSchedules' generated schedules. Each
// step records what it saw in its event, and an experiment reads its
// table off the events. A step fails the run only when the harness
// cannot go on (a file to flip is missing, a replica never catches up, a
// reopen fails); a refused write, a scrub verdict or a failed repair is
// an observation.
type schedule struct {
	seed     int64 // the world's and the fault plans'
	bucket   string
	opts     storedb.Options
	replicas int // in-memory replicas tailing the node: catchUp and repair need one
	steps    []step
}

// add appends steps and returns the index of the last, which is also that
// of its event: a projection reads the events of the steps it kept the
// index of.
func (s *schedule) add(steps ...step) int {
	s.steps = append(s.steps, steps...)
	return len(s.steps) - 1
}

// step is one action, named by op (the cases of trace.run); each field
// is read by the ops noted.
type step struct {
	op    string
	keys  string            // put, settle: key format over the index; load: over (writer, op)
	n     int               // put: keys; load: writers; settle: most tail keys
	ops   int               // load: writes per writer
	every int               // load: the writer whose ack is an every-th compacts
	bg    bool              // load: runs until join, paced, a writer stopping at a refusal
	size  int               // put: value bytes (one when 0)
	rule  storedb.FaultRule // inject
	file  string            // flip: SNAPSHOT or WAL
	bit   int64             // flip: reduced modulo the file's bit length
	read  string            // probe: the key read
	key   string            // probe: the key written
}

// event is what one step saw; each field is set by the ops noted.
type event struct {
	acked, refused, unexpected int                 // put, load: the verdicts; verify: the ledger's sizes
	lost, resurrected          int                 // verify
	elapsed                    time.Duration       // load
	lats                       []time.Duration     // put: each commit's
	scrub                      storedb.ScrubReport // scrub
	read                       bool                // probe: the read key was served
	err                        error               // scrub; probe: the write's; repair
	converged                  bool                // repair, when it succeeded
}

// note counts one write's verdict: an ack, one of the refusals the step
// expects, or an error that is neither.
func (e *event) note(err error, expected []error) {
	switch {
	case err == nil:
		e.acked++
	case slices.ContainsFunc(expected, func(r error) bool { return errors.Is(err, r) }):
		e.refused++
	default:
		e.unexpected++
	}
}

// trace is one run of a schedule: its events, one per step, and after
// the last step the faults its plans fired and the node's health; and,
// while it runs, the tier, the plans injected and the background load.
type trace struct {
	events []event
	fired  int
	health storedb.StorageHealth

	s     schedule
	t     *Tier
	plans []*storedb.FaultPlan
	bg    func() // stops the background load and waits for it
}

// runSchedule runs s and returns what its steps saw.
func runSchedule(s schedule) (*trace, error) {
	r := &trace{s: s, events: make([]event, len(s.steps))}
	t, err := NewTier(TierConfig{Seed: s.seed, Programs: 1, Replicas: s.replicas, Disk: &s.opts})
	if err != nil {
		return r, err
	}
	defer t.Close()
	defer r.join()
	r.t = t
	for i, st := range s.steps {
		if err := r.run(st, &r.events[i]); err != nil {
			return r, fmt.Errorf("step %d (%s): %w", i, st.op, err)
		}
	}
	for _, p := range r.plans {
		r.fired += p.Fired()
	}
	r.health = t.disk.db.Health()
	return r, nil
}

func (r *trace) run(s step, e *event) error {
	d, ctx := r.t.disk, context.Background()
	switch s.op {
	case "put":
		val := bytes.Repeat([]byte("v"), max(s.size, 1))
		e.lats = make([]time.Duration, s.n)
		for i := range e.lats {
			key, start := fmt.Sprintf(s.keys, i), time.Now()
			_, err := d.put(r.s.bucket, key, val)
			e.lats[i] = time.Since(start)
			e.note(err, nil) // a put expects no refusal
		}
	case "load":
		if !s.bg {
			r.load(s, e, nil)
			return nil
		}
		r.join()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() { r.load(s, e, &stop); close(done) }()
		r.bg = func() { stop.Store(true); <-done }
	case "join":
		r.join()
	case "compact": // one that must succeed
		return d.db.Compact()
	case "settle":
		// Wait up to ten seconds for the background compactor to finish
		// one. With keys set it must have, and a WAL tail is then kept past
		// it: a manual compaction waits out any in flight, and the one key
		// written after it stays in the WAL (below the next threshold, it
		// raises no new compactor signal).
		for deadline := time.Now().Add(10 * time.Second); d.db.Health().Compactions == 0 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		if s.keys != "" && d.db.Health().Compactions == 0 {
			return errors.New("background compactor never finished a compaction")
		}
		for i := 0; s.keys != ""; i++ {
			if err := d.db.Compact(); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
			if _, err := d.put(r.s.bucket, fmt.Sprintf(s.keys, i), []byte("v")); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
			if fi, err := os.Stat(filepath.Join(d.opts.Dir, "WAL")); err == nil && fi.Size() > 0 {
				break
			}
			if i > s.n {
				return errors.New("could not keep a WAL tail past the compactor")
			}
		}
	case "inject": // a plan of the one rule, until heal or the next inject
		rule := s.rule
		r.plans = append(r.plans, storedb.NewFaultPlan(r.s.seed, &rule))
		r.plans[len(r.plans)-1].Install()
	case "heal":
		storedb.UninstallFaults()
	case "flip": // at rest
		return storedb.FlipFileBit(filepath.Join(d.opts.Dir, s.file), s.bit)
	case "scrub":
		e.scrub, e.err = d.db.Scrub(ctx)
	case "probe":
		if s.read != "" { // View fails only on a closed store, leaving read false
			_ = d.db.View(func(tx *storedb.Tx) error {
				_, e.read = tx.MustBucket(r.s.bucket).Get([]byte(s.read))
				return nil
			})
		}
		if s.key != "" {
			_, e.err = d.put(r.s.bucket, s.key, []byte("v"))
		}
	case "crash":
		// A process exit after the load's writers have returned, and a
		// restart: reopenCold closes the handle, which drains the open
		// commit group. A power cut, which loses what the OS had not
		// written, is storedb's TestCrashAtEverySyncPoint.
		return r.t.reopenCold()
	case "reopen": // a live recovery; a no-op on a healthy store
		return d.db.Reopen()
	case "catchUp": // the replicas pull up to the node, and all must agree
		if err := r.t.SyncAll(ctx); err != nil {
			return err
		}
		if _, _, err := r.t.converged(); err != nil {
			return fmt.Errorf("replica never caught up: %w", err)
		}
	case "repair": // from the first replica: quarantine, restore, verify
		if len(r.t.nodes) < 2 {
			return errors.New("no replica to repair from")
		}
		rep := &replication.Repairer{DB: d.db, Source: r.t.nodes[1].ts.URL, ID: "p", Client: r.t.Client("p", nil), Poll: 5 * time.Millisecond}
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if e.err = rep.Repair(rctx); e.err == nil {
			_, _, cerr := r.t.converged()
			e.converged = cerr == nil
		}
	case "verify":
		return d.verify(r.s.bucket, e)
	default:
		return fmt.Errorf("unknown op %q", s.op)
	}
	return nil
}

// load runs the step's writers until they are done or stop is set. A
// writer compacting keeps a snapshot-path fault inside the scripted load;
// a failed compaction leaves the store failed, which the next refusals
// record. A foreground load runs under an injected fault and expects its
// error and the sticky failure after it; a background one runs while a
// bit rots at rest, expects only the corrupt store's refusal, and has the
// first replica pull meanwhile.
func (r *trace) load(s step, e *event, stop *atomic.Bool) {
	d, stopped := r.t.disk, func() bool { return stop != nil && stop.Load() }
	expected := []error{storedb.ErrStorageFailed, storedb.ErrInjectedIO, storedb.ErrInjectedNoSpace}
	if s.bg {
		expected = []error{storedb.ErrStorageCorrupt}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < s.ops && !stopped(); i++ {
				acked, err := d.put(r.s.bucket, fmt.Sprintf(s.keys, w, i), []byte("v"))
				mu.Lock()
				e.note(err, expected)
				mu.Unlock()
				if err != nil && s.bg {
					return
				}
				if err == nil && s.every > 0 && acked%s.every == 0 {
					_ = d.db.Compact()
				}
				if s.bg {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	if s.bg && len(r.t.nodes) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				_ = r.t.nodes[1].rep.Sync(context.Background()) // a failed pull is retried
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	e.elapsed = time.Since(start)
}

// join stops a background load and waits for it.
func (r *trace) join() {
	if r.bg != nil {
		r.bg()
		r.bg = nil
	}
}
