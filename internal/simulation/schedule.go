package simulation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/replication"
	"softreputation/internal/storedb"
)

// A schedule is a list of steps run in order against a fresh tier: E21's
// fault cells and group-commit run and E25's bit-rot cells and latency run
// on its disk node, E18's phases and E22's cells on its three nodes, and
// the generated schedules of TestDiskSchedules and TestTierSchedules. Each
// step records what it saw in its event, and every event records every
// node after it; an experiment reads its table off the events. A step
// fails the run only when the harness cannot go on (a file to flip is
// missing, a replica cannot pull, a reopen or a promotion fails); a
// refused write, a failed pull, a scrub verdict or a failed repair is an
// observation.
type schedule struct {
	cfg    TierConfig
	bucket string // the disk node's, for put, load, read and write
	steps  []step
}

// add appends steps and returns the index of the last, which is also that
// of its event: a projection reads the events of the steps it kept the
// index of.
func (s *schedule) add(steps ...step) int {
	s.steps = append(s.steps, steps...)
	return len(s.steps) - 1
}

// step is one action, and the call of the constructor that made it, which
// is how a schedule prints as Go. An error it returns fails the run.
type step struct {
	lit string
	run func(r *trace, e *event) error
}

// mk makes the step op(args...).
func mk(op string, run func(r *trace, e *event) error, args ...any) step {
	lits := make([]string, len(args))
	for i, a := range args {
		lits[i] = fmt.Sprintf("%#v", a)
		if r, ok := a.(storedb.FaultRule); ok {
			lits[i] = fmt.Sprintf("storedb.FaultRule{Op: %q, Label: %q, After: %d, Count: %d, Short: %d, Delay: %d, Err: %s}",
				r.Op, r.Label, r.After, r.Count, r.Short, r.Delay,
				map[error]string{nil: "nil", storedb.ErrInjectedIO: "storedb.ErrInjectedIO", storedb.ErrInjectedNoSpace: "storedb.ErrInjectedNoSpace"}[r.Err])
		}
	}
	return step{op + "(" + strings.Join(lits, ", ") + ")", run}
}

// event is what one step saw: every node after it, and what the ops noted
// set.
type event struct {
	nodes []nodeState // in tier order: p, then r1..rN

	acked, refused, unexpected int                 // put, load: the verdicts; verify: the ledger's sizes; vote: the votes acked
	lost, resurrected          int                 // verify
	elapsed                    time.Duration       // load
	lats                       []time.Duration     // put: each commit's
	scrub                      storedb.ScrubReport // scrub
	file                       string              // flip
	read                       bool                // read: the key was served
	err                        error               // scrub, write, repair, catchUp, pull, passEpoch, audit
	converged                  bool                // repair, when it succeeded
	votes                      []ack               // vote: the pairs acked
	epoch                      uint64              // vote: the highest the client had observed before it
	failed                     []int               // lookups: each client's failures
	stored                     int                 // audit
}

// nodeState is one node after a step: its chain position, epoch, role and
// fence, and its puller's counters when it has one.
type nodeState struct {
	seq, digest, epoch uint64
	replica, fenced    bool
	repl               replication.Stats
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
// the last step the faults its plans fired and the disk node's health;
// and, while it runs, the tier, its named clients, the plans injected and
// the background load.
type trace struct {
	events []event
	fired  int
	health storedb.StorageHealth

	s     schedule
	t     *Tier
	apis  map[string]*client.API
	plans []*storedb.FaultPlan
	bg    func() // stops the background load and waits for it
}

// runSchedule runs s and returns what its steps saw. Its clients, each
// through the tier's net, are "stale", a failover client that knows only
// p, "fo", a failover client over every node (both speak as "client" and
// time their probe caches by the world's clock), and "baseline", a
// single-server client of p; "p" votes in process.
func runSchedule(s schedule) (*trace, error) {
	r := &trace{s: s, events: make([]event, len(s.steps))}
	t, err := NewTier(s.cfg)
	if err != nil {
		return r, err
	}
	defer t.Close()
	defer r.join()
	eps := t.Endpoints()
	r.t, r.apis = t, map[string]*client.API{"p": nil, "stale": client.NewFailoverAPI(eps[:1], t.Client("client", nil)),
		"fo": client.NewFailoverAPI(eps, t.Client("client", nil)), "baseline": client.NewAPI(eps[0], t.Client("baseline", nil))}
	r.apis["stale"].Failover().Clock, r.apis["fo"].Failover().Clock = t.World.Clock, t.World.Clock
	for i, st := range s.steps {
		e := &r.events[i]
		if err := st.run(r, e); err != nil {
			return r, fmt.Errorf("step %d (%s): %w", i, st.lit, err)
		}
		for _, n := range t.nodes {
			db, ns := n.store.DB(), nodeState{}
			ns.seq, ns.digest = db.ChainPosition()
			ns.epoch, ns.replica, ns.fenced = db.Epoch(), db.ReplicaMode(), db.Fenced()
			if n.rep != nil {
				ns.repl = n.rep.Stats()
			}
			e.nodes = append(e.nodes, ns)
		}
	}
	for _, p := range r.plans {
		r.fired += p.Fired()
	}
	if t.disk != nil {
		r.health = t.disk.db.Health()
	}
	return r, nil
}

// The disk node's steps.

// put writes n keys (keys formats the index) of size bytes each (one when
// 0), timing each commit; a put expects no refusal.
func put(keys string, n, size int) step {
	return mk("put", func(r *trace, e *event) error {
		val := bytes.Repeat([]byte("v"), max(size, 1))
		e.lats = make([]time.Duration, n)
		for i := range e.lats {
			key, start := fmt.Sprintf(keys, i), time.Now()
			_, err := r.t.disk.put(r.s.bucket, key, val)
			e.lats[i] = time.Since(start)
			e.note(err, nil)
		}
		return nil
	}, keys, n, size)
}

// load runs n writers of ops writes each (keys formats writer and op), the
// writer whose ack is an every-th compacting (never when 0), to the end;
// or, bg, paced and each stopping at its first refusal, in the background
// until join.
func load(keys string, n, ops, every int, bg bool) step {
	return mk("load", func(r *trace, e *event) error {
		if !bg {
			r.load(keys, n, ops, every, e, nil)
			return nil
		}
		r.join()
		var stop atomic.Bool
		done := make(chan struct{})
		go func() { r.load(keys, n, ops, every, e, &stop); close(done) }()
		r.bg = func() { stop.Store(true); <-done }
		return nil
	}, keys, n, ops, every, bg)
}

func join() step { return mk("join", func(r *trace, _ *event) error { r.join(); return nil }) }

// compact is one manual compaction, which must succeed; reopen, a live
// recovery (a no-op on a healthy store).
func compact() step {
	return mk("compact", func(r *trace, _ *event) error { return r.t.disk.db.Compact() })
}

func reopen() step {
	return mk("reopen", func(r *trace, _ *event) error { return r.t.disk.db.Reopen() })
}

// settle waits up to ten seconds for the background compactor to finish
// one. With keys set it must have, and a WAL tail is then kept past it: a
// manual compaction waits out any in flight, and the one key written after
// it (keys formats a counter, tried up to n times) stays in the WAL (below
// the next threshold, it raises no new compactor signal).
func settle(keys string, n int) step {
	return mk("settle", func(r *trace, _ *event) error {
		d := r.t.disk
		for deadline := time.Now().Add(10 * time.Second); d.db.Health().Compactions == 0 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		if keys != "" && d.db.Health().Compactions == 0 {
			return errors.New("background compactor never finished a compaction")
		}
		for i := 0; keys != ""; i++ {
			if err := d.db.Compact(); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
			if _, err := d.put(r.s.bucket, fmt.Sprintf(keys, i), []byte("v")); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
			if fi, err := os.Stat(filepath.Join(d.opts.Dir, "WAL")); err == nil && fi.Size() > 0 {
				break
			}
			if i > n {
				return errors.New("could not keep a WAL tail past the compactor")
			}
		}
		return nil
	}, keys, n)
}

// inject installs a plan of the one rule, until heal or the next inject.
func inject(rule storedb.FaultRule) step {
	return mk("inject", func(r *trace, _ *event) error {
		rule := rule // the plan counts its matches in it
		r.plans = append(r.plans, storedb.NewFaultPlan(&rule))
		r.plans[len(r.plans)-1].Install()
		return nil
	}, rule)
}

// flip flips one bit at rest in file (SNAPSHOT or WAL), bit reduced modulo
// the file's bit length.
func flip(file string, bit int64) step {
	return mk("flip", func(r *trace, e *event) error {
		e.file = file
		return storedb.FlipFileBit(filepath.Join(r.t.disk.opts.Dir, file), bit)
	}, file, bit)
}

func scrub() step {
	return mk("scrub", func(r *trace, e *event) error {
		e.scrub, e.err = r.t.disk.db.Scrub(context.Background())
		return nil
	})
}

// read reads key; View fails only on a closed store, leaving read false.
func read(key string) step {
	return mk("read", func(r *trace, e *event) error {
		_ = r.t.disk.db.View(func(tx *storedb.Tx) error { _, e.read = tx.MustBucket(r.s.bucket).Get([]byte(key)); return nil })
		return nil
	}, key)
}

// write writes key and records the error.
func write(key string) step {
	return mk("write", func(r *trace, e *event) error { _, e.err = r.t.disk.put(r.s.bucket, key, []byte("v")); return nil }, key)
}

// crash is a process exit after the load's writers have returned, and a
// restart: reopenCold closes the handle, which drains the open commit
// group. A power cut, which loses what the OS had not written, is
// storedb's TestCrashAtEverySyncPoint.
func crash() step { return mk("crash", func(r *trace, _ *event) error { return r.t.reopenCold() }) }

// repair repairs the disk node from the first replica: quarantine,
// restore, verify.
func repair() step {
	return mk("repair", func(r *trace, e *event) error {
		rep := &replication.Repairer{DB: r.t.disk.db, Source: r.t.nodes[1].ts.URL, ID: "p", Client: r.t.Client("p", nil), Poll: 5 * time.Millisecond}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if e.err = rep.Repair(ctx); e.err == nil {
			e.converged = r.t.converged() == nil
		}
		return nil
	})
}

// verify checks the disk node's ledger (diskNode.verify).
func verify() step {
	return mk("verify", func(r *trace, e *event) error { return r.t.disk.verify(r.s.bucket, e) })
}

// load runs writers until they are done or stop is set. A writer
// compacting keeps a snapshot-path fault inside the scripted load; a
// failed compaction leaves the store failed, which the next refusals
// record. A foreground load runs under an injected fault and expects its
// error and the sticky failure after it; a background one runs while a
// bit rots at rest, expects only the corrupt store's refusal, and has the
// first replica pull meanwhile.
func (r *trace) load(keys string, n, ops, every int, e *event, stop *atomic.Bool) {
	d, bg := r.t.disk, stop != nil
	expected := []error{storedb.ErrStorageFailed, storedb.ErrInjectedIO, storedb.ErrInjectedNoSpace}
	if bg {
		expected = []error{storedb.ErrStorageCorrupt}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops && !(bg && stop.Load()); i++ {
				acked, err := d.put(r.s.bucket, fmt.Sprintf(keys, w, i), []byte("v"))
				mu.Lock()
				e.note(err, expected)
				mu.Unlock()
				if err != nil && bg {
					return
				}
				if err == nil && every > 0 && acked%every == 0 {
					_ = d.db.Compact()
				}
				if bg {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	if bg && len(r.t.nodes) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
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

// The tier's steps. Nodes are named p, r1..rN; clients as runSchedule
// names them; links by the net's names: the nodes' and "client".

// vote lands up to n ratings through client via (Tier.voteWalk), logging
// the voters in through it first when relogin.
func vote(n int, via string, relogin bool) step {
	return mk("vote", func(r *trace, e *event) error {
		api, ok := r.apis[via]
		if !ok || api != nil && api.Failover() == nil {
			return fmt.Errorf("no voting client %q", via)
		}
		if api != nil {
			e.epoch = api.Failover().Epoch()
		}
		from := len(r.t.acks)
		e.acked = r.t.voteWalk(n, api, relogin)
		e.votes = r.t.acks[from:]
		return nil
	}, n, via, relogin)
}

// lookups looks catalog items 0..n-1 up, each through every client in via
// in turn, and counts each client's failures.
func lookups(n int, via ...string) step {
	args := []any{n}
	for _, v := range via {
		args = append(args, v)
	}
	return mk("lookups", func(r *trace, e *event) error {
		e.failed = make([]int, len(via))
		for i := 0; i < n; i++ {
			meta := MetaOf(r.t.World.Catalog.Items[i%len(r.t.World.Catalog.Items)])
			for j, name := range via {
				if _, err := r.apis[name].Lookup(context.Background(), meta); err != nil {
					e.failed[j]++
				}
			}
		}
		return nil
	}, args...)
}

// cut, cutFor and loseReplies act on the tier's PartitionNet; heal also
// removes any injected storage fault. advance moves the world's clock,
// which expires timed cuts and probe caches.
func cut(a, b string) step {
	return mk("cut", func(r *trace, _ *event) error { r.t.net.Cut(a, b); return nil }, a, b)
}

func cutFor(a, b string, d time.Duration) step {
	return mk("cutFor", func(r *trace, _ *event) error { r.t.net.CutFor(a, b, d); return nil }, a, b, d)
}

func loseReplies(from, to string) step {
	return mk("loseReplies", func(r *trace, _ *event) error { r.t.net.LoseReplies(from, to); return nil }, from, to)
}

func heal() step {
	return mk("heal", func(r *trace, _ *event) error { storedb.UninstallFaults(); r.t.net.HealAll(); return nil })
}

func advance(d time.Duration) step {
	return mk("advance", func(r *trace, _ *event) error { r.t.World.Clock.Advance(d); return nil }, d)
}

// promote makes node a primary (Server.Promote: its own epoch + 1).
func promote(node string) step {
	return mk("promote", func(r *trace, _ *event) error { return r.t.node(node).srv.Promote() }, node)
}

// demote points node at primary (Server.DemoteToReplica): a replica
// re-aims its puller; a deposed primary goes back to replica mode and,
// the first time, gets a puller with a recovery journal of its own.
func demote(node, primary string) step {
	return mk("demote", func(r *trace, _ *event) error {
		n, url := r.t.node(node), r.t.node(primary).ts.URL
		n.srv.DemoteToReplica(url)
		if n.rep == nil {
			n.rep = &replication.Replica{DB: n.store.DB(), ID: n.name, Client: r.t.Client(n.name, nil), Journal: &replication.RecoveryJournal{}}
		}
		n.rep.Primary = url
		return nil
	}, node, primary)
}

// pull has node's puller sync once (Replica.Sync) and records the error.
func pull(node string) step {
	return mk("pull", func(r *trace, e *event) error {
		n := r.t.node(node)
		if n.rep == nil {
			return errors.New("no primary to pull from")
		}
		e.err = n.rep.Sync(context.Background())
		return nil
	}, node)
}

// catchUp has every replica pull up to its primary, failing the run if
// one cannot, and records whether the tier then agrees (Tier.converged).
func catchUp() step {
	return mk("catchUp", func(r *trace, e *event) error {
		for _, n := range r.t.nodes {
			if n.rep == nil || !n.srv.IsReplica() {
				continue
			}
			if err := n.rep.Sync(context.Background()); err != nil {
				return fmt.Errorf("%s sync: %w", n.name, err)
			}
		}
		e.err = r.t.converged()
		return nil
	})
}

// kill closes node's listener and its sessions; the node is gone from the
// net.
func kill(node string) step {
	return mk("kill", func(r *trace, _ *event) error { r.t.node(node).stop(); return nil }, node)
}

// probe has failover client via sweep /healthz for the primary
// (Failover.Probe), which must pick node want.
func probe(via, want string) step {
	return mk("probe", func(r *trace, _ *event) error {
		if got, url := r.apis[via].Failover().Probe(context.Background()), r.t.node(want).ts.URL; got != url {
			return fmt.Errorf("picked %q, want %s at %q", got, want, url)
		}
		return nil
	}, via, want)
}

// passEpoch tells client to the highest epoch client from has observed, as
// any response from the newest primary would, and reads the server's stats
// through it.
func passEpoch(from, to string) step {
	return mk("passEpoch", func(r *trace, e *event) error {
		r.apis[to].Failover().ObserveEpoch(r.apis[from].Failover().Epoch())
		_, e.err = r.apis[to].Stats(context.Background())
		return nil
	}, from, to)
}

// audit publishes scores on node and counts the ratings it stores
// (Tier.auditVotes), recording an error unless they are the seeded votes
// plus those the steps at acked saw acked.
func audit(node string, acked []int) step {
	return mk("audit", func(r *trace, e *event) error {
		want := r.t.seeded
		for _, i := range acked {
			want += r.events[i].acked
		}
		e.stored, e.err = r.t.auditVotes(r.t.node(node), want)
		return nil
	}, node, acked)
}
