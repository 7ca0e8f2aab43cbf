package simulation

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode"

	"softreputation/internal/replication"
	"softreputation/internal/storedb"
)

// TestDiskSchedules runs schedules drawn from seeds over the disk
// interpreter's steps — E21's fault kinds with their offset, count and
// torn length varied, at-rest flips in either file, crashes, live
// reopens, compactions, scrubs, and catch-up + repair from the replica
// — and checks what E21 and E25 check on their hand-picked cells:
//   - no write fails with an error its step does not expect (trace.load);
//   - after every recovery, every acked key is present, every refused
//     key absent, and the next write is acked;
//   - a scrub after an at-rest flip fails with ErrCorrupt naming a unit
//     of the flipped file, reads keep serving and writes shed; a scrub
//     with no flip before it is clean;
//   - a repaired node has converged with its replica.
//
// It runs the pinned schedules, eight pinned seeds and one fresh seed,
// which it logs; `make soak` runs it fifty times, fifty fresh seeds. A
// failing schedule is shrunk to the fewest episodes that still fail the
// same way and printed as step literals: that schedule becomes a pinned
// case.
func TestDiskSchedules(t *testing.T) {
	start := time.Now()
	var runs, fired int
	ops := map[string]int{}
	run := func(steps []step) error {
		// Manual compaction only: no background compactor truncates the
		// WAL between the write before a flip and the flip.
		opts := storedb.Options{SyncWrites: true, CompactEvery: -1}
		tr, err := runSchedule(schedule{cfg: TierConfig{Seed: 1, Programs: 1, Replicas: 1, Disk: &opts}, bucket: "gen", steps: steps})
		runs++
		fired += tr.fired
		if err == nil {
			err = checkTrace(steps, tr)
		}
		return err
	}
	for i, steps := range pinnedSchedules {
		if err := run(steps); err != nil {
			t.Errorf("pinned schedule %d: %v", i, err)
		}
	}
	fresh := time.Now().UnixNano()
	t.Logf("fresh seed %d", fresh)
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, fresh} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 25; i++ {
			eps := drawSteps(rng)
			steps := slices.Concat(eps...)
			for _, st := range steps {
				ops[st.op()]++
			}
			if err := run(steps); err != nil {
				t.Errorf("seed %d schedule %d: %v\nshrunk, for pinnedSchedules:\n%s", seed, i, err,
					literal(shrink(eps, slices.Concat[[]step], run, err)))
			}
		}
	}
	t.Logf("%d schedules in %v: %d faults fired, %d flips, %d crashes",
		runs, time.Since(start).Round(time.Millisecond), fired, ops["flip"], ops["crash"])
}

// op names the step's constructor.
func (s step) op() string {
	op, _, _ := strings.Cut(s.lit, "(")
	return op
}

// pinnedSchedules are schedules a failure of TestDiskSchedules printed,
// kept after the fix.
var pinnedSchedules = [][]step{}

// checkTrace walks the steps beside their events.
func checkTrace(steps []step, tr *trace) error {
	units := map[string][]string{
		"SNAPSHOT": {storedb.UnitSnapshotHeader, storedb.UnitSnapshotBlock},
		"WAL":      {storedb.UnitWALFrame},
	}
	flipped, corrupt := "", false // the file flipped since the last scrub; the last scrub's verdict
	for i, st := range steps {
		e, op := tr.events[i], st.op()
		switch {
		case e.unexpected > 0:
			return fmt.Errorf("step %d: %d writes failed with an error that is not a refusal", i, e.unexpected)
		case op == "flip":
			flipped = e.file
		case op == "scrub":
			corrupt = errors.Is(e.err, storedb.ErrCorrupt) && !e.scrub.Clean
			if flipped == "" && e.err != nil || flipped != "" && !(corrupt && slices.Contains(units[flipped], e.scrub.Unit)) {
				return fmt.Errorf("step %d: scrub after a flip of %q: unit %q, %v", i, flipped, e.scrub.Unit, e.err)
			}
			flipped = ""
		case op == "read" && corrupt && !e.read:
			return fmt.Errorf("step %d: the corrupt store stopped serving reads", i)
		case op == "write" && (corrupt && !errors.Is(e.err, storedb.ErrStorageCorrupt) || !corrupt && e.err != nil):
			return fmt.Errorf("step %d: write to a store corrupt %v: %v", i, corrupt, e.err)
		case op == "catchUp" && e.err != nil:
			return fmt.Errorf("step %d: replica never caught up: %v", i, e.err)
		case op == "repair" && (e.err != nil || !e.converged):
			return fmt.Errorf("step %d: repair: %v, converged %v", i, e.err, e.converged)
		case op == "verify" && (e.lost != 0 || e.resurrected != 0):
			return fmt.Errorf("step %d: %d of %d acked writes lost, %d of %d refused resurrected",
				i, e.lost, e.acked, e.resurrected, e.refused)
		}
		if op == "repair" {
			corrupt = false
		}
	}
	return nil
}

// gen draws one disk schedule, episode by episode; every episode leaves
// the node writable and its ledger verified.
type gen struct {
	rng  *rand.Rand
	keyN int  // key formats drawn, to name each uniquely
	snap bool // a SNAPSHOT file exists
}

func drawSteps(rng *rand.Rand) [][]step {
	g := &gen{rng: rng}
	var eps [][]step
	for n := 2 + rng.Intn(4); n > 0; n-- {
		eps = append(eps, [](func() []step){g.writes, g.fault, g.rot, g.restart}[rng.Intn(4)]())
	}
	return eps
}

// keys names a step's keys uniquely in the schedule.
func (g *gen) keys(verbs string) string {
	g.keyN++
	return fmt.Sprintf("k%d-%s", g.keyN, verbs)
}

func (g *gen) load(every int) step {
	return load(g.keys("w%02d-%03d"), 1+g.rng.Intn(4), 1+g.rng.Intn(8), every, false)
}

// writes is healthy traffic: puts, a load, a compaction, a scrub, or a
// catch-up.
func (g *gen) writes() []step {
	switch g.rng.Intn(5) {
	case 0:
		return []step{put(g.keys("%03d"), 1+g.rng.Intn(6), 0)}
	case 1:
		return []step{g.load(g.rng.Intn(2) * (2 + g.rng.Intn(8)))}
	case 2:
		g.snap = true
		return []step{compact()}
	case 3:
		return []step{scrub()}
	default:
		return []step{catchUp()}
	}
}

// fault is one of E21's fault kinds, its offset, count (0: every match)
// and torn length drawn, under a load that compacts often enough for the
// snapshot-path kinds to fire, then recovery: a crash, or (but for the
// kill arm) a live reopen.
func (g *gen) fault() []step {
	kind := faultKinds[g.rng.Intn(len(faultKinds))]
	rule := kind.at(g.rng.Intn(10))
	rule.Count = g.rng.Intn(3)
	if rule.Op == storedb.FaultWrite {
		rule.Short = g.rng.Intn(12)
	}
	recovery := kind.recovery
	if g.rng.Intn(2) == 0 {
		recovery = crash()
	}
	return []step{inject(rule), g.load(2 + g.rng.Intn(6)), heal(), recovery, verify(), write(g.keys("after"))}
}

// rot flips one bit at rest in either file, after a write that puts a
// frame in the WAL, then scrubs, probes, catches the replica up and
// repairs from it. A SNAPSHOT flip may run under a background load,
// which never writes that file here; a WAL flip may not: under a load it
// can land in a frame written but not yet acknowledged, which is not at
// rest, and which a scrub leaves to its next pass (it verifies what was
// acknowledged when it began).
func (g *gen) rot() []step {
	var ep []step
	file, bg := "WAL", false
	if g.rng.Intn(2) == 0 {
		file, bg = "SNAPSHOT", g.rng.Intn(2) == 0
		if !g.snap {
			ep = append(ep, compact())
		}
	}
	w := g.keys("%03d")
	ep = append(ep, put(w, 1+g.rng.Intn(3), 0))
	if bg {
		ep = append(ep, load(g.keys("w%02d-%03d"), 1+g.rng.Intn(4), 1+g.rng.Intn(8), 0, true))
	}
	g.snap = true // the compaction above, or the repair, writes one
	return append(ep, flip(file, g.rng.Int63()), scrub(), read(fmt.Sprintf(w, 0)), write(g.keys("probe")), join(),
		catchUp(), repair(), verify(), write(g.keys("after")))
}

// restart crashes or reopens a healthy node, then checks it.
func (g *gen) restart() []step {
	if g.rng.Intn(2) == 0 {
		return []step{crash(), verify(), catchUp()}
	}
	return []step{reopen(), verify(), catchUp()}
}

// TestTierSchedules runs schedules drawn from seeds over the tier's steps
// on a primary and two replicas: votes in process on p and through the
// stale and the failover client, lookups, cuts of random links (two-way,
// timed, lost replies) with traffic under them, promotions with the other
// replicas re-aimed and the failover client probing, and rejoins of
// deposed primaries. Every schedule closes by healing the net, demoting
// every deposed primary under the last one promoted, pulling every node,
// auditing the primary and catching every replica up. It checks on the
// events:
//  1. at most one node commits local writes per epoch (a node commits
//     locally in a step when it holds the primary role after it and its
//     sequence number moved);
//  2. a vote through a client that had observed epoch e advances no node
//     whose epoch is below e (E22's zero dual-acks, generalised);
//  3. a pull quarantines exactly the node's batches past the last prefix
//     its chain shares with its primary's (checkedPull);
//  4. the closing tier has converged;
//  5. every acked vote is stored on the closing primary or written by a
//     batch in some node's recovery journal, vote by vote and key by key
//     (checkedAudit).
//
// A promotion's probe must also find the promoted node.
//
// It runs the pinned schedules, eight pinned seeds and one fresh seed,
// which it logs, a quarter as many under the race detector; `make soak`
// runs it fifty times. A failing schedule is shrunk and printed as for
// TestDiskSchedules, for pinnedTierSchedules.
func TestTierSchedules(t *testing.T) {
	perSeed := 25
	if raceEnabled {
		perSeed /= 4
	}
	nodes := []string{"p", "r1", "r2"}
	start := time.Now()
	var runs, promotions, quarantined int
	run := func(steps []step) error {
		tr, err := runSchedule(schedule{cfg: TierConfig{Seed: 1, Programs: 25, Users: 6, Replicas: len(nodes) - 1}, steps: steps})
		runs++
		if err == nil {
			err = checkTier(steps, tr)
		}
		for _, st := range steps {
			if st.op() == "promote" {
				promotions++
			}
		}
		for i := 0; tr.t != nil && i < len(tr.t.nodes); i++ {
			quarantined += len(journal(tr.t.nodes[i]))
		}
		return err
	}
	for i, steps := range pinnedTierSchedules {
		if err := run(steps); err != nil {
			t.Errorf("pinned schedule %d: %v", i, err)
		}
	}
	fresh := time.Now().UnixNano()
	t.Logf("fresh seed %d", fresh)
	build := tierSteps(nodes)
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, fresh} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perSeed; i++ {
			eps := drawTier(rng, nodes)
			if err := run(build(eps...)); err != nil {
				t.Errorf("seed %d schedule %d: %v\nshrunk, for pinnedTierSchedules:\n%s", seed, i, err,
					literal(shrink(eps, build, run, err)))
			}
		}
	}
	t.Logf("%d schedules in %v: %d promotions, %d batches quarantined",
		runs, time.Since(start).Round(time.Millisecond), promotions, quarantined)
}

// pinnedTierSchedules are schedules a failure of TestTierSchedules
// printed, kept after the fix, and schedules written to reach a case the
// generator seldom draws.
var pinnedTierSchedules = [][]step{
	// The stale client's 25 votes land on the deposed p and are
	// quarantined when it rejoins; they rate every program once (the walk
	// steps software by 7 of 25). Once the stale client's contact has
	// fenced p, 25 more in process on p rate the same programs as other
	// voters and must all be refused: a vote acked and dropped there
	// shares its software with a quarantined one, so only its own ratings
	// key tells checkedAudit it was lost.
	{
		checkedPull("r1"), checkedPull("r2"), cut("p", "r1"), cut("p", "r2"), promote("r1"), demote("r2", "r1"),
		vote(25, "stale", false), advance(2 * time.Second), probe("fo", "r1"), passEpoch("fo", "stale"),
		vote(25, "p", false), heal(), demote("p", "r1"), checkedPull("p"), checkedPull("r2"),
		checkedAudit("r1"), catchUp(),
	},
}

// TestVoteNeedsAKnownClient: a misspelt client in a written schedule
// fails the run; it does not vote in process on p, where the epoch
// invariant has no client epoch to check.
func TestVoteNeedsAKnownClient(t *testing.T) {
	for _, via := range []string{"fo ", "baseline"} {
		_, err := runSchedule(schedule{cfg: TierConfig{Seed: 1, Programs: 5, Users: 2}, steps: []step{vote(1, via, false)}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no voting client %q", via)) {
			t.Errorf("vote through %q: %v", via, err)
		}
	}
}

// checkTier walks a tier schedule's events for invariants 1, 2 and 4. The
// first step has none before it; from the tier's first state, p the one
// primary and every client at epoch 0, it cannot break the first two.
func checkTier(steps []step, tr *trace) error {
	name := func(n int) string { return tr.t.nodes[n].name }
	committer := map[uint64]int{} // epoch → the node that committed locally in it
	for i := 1; i < len(steps); i++ {
		e, op := tr.events[i], steps[i].op()
		for n, s := range e.nodes {
			was := tr.events[i-1].nodes[n]
			if s.seq == was.seq {
				continue
			}
			if !s.replica {
				if c, ok := committer[s.epoch]; ok && c != n {
					return fmt.Errorf("step %d: %s and %s both committed locally in epoch %d", i, name(c), name(n), s.epoch)
				}
				committer[s.epoch] = n
			}
			if op == "vote" && was.epoch < e.epoch {
				return fmt.Errorf("step %d: a client that had observed epoch %d advanced %s, at epoch %d", i, e.epoch, name(n), was.epoch)
			}
		}
		if op == "catchUp" && e.err != nil {
			return fmt.Errorf("step %d: the closing tier did not converge: %v", i, e.err)
		}
	}
	return nil
}

// checkedPull is pull, failing the run unless the pull quarantined exactly
// the node's batches past the last prefix its chain shares with its
// primary's, where pastCommon can place that prefix. Where it cannot,
// checkedAudit still finds an acked vote the pull dropped.
func checkedPull(node string) step {
	return mk("checkedPull", func(r *trace, e *event) error {
		n := r.t.node(node)
		if n.rep == nil {
			return pull(node).run(r, e) // which fails the run
		}
		want, placed := pastCommon(r.t, n)
		before := len(journal(n))
		if err := pull(node).run(r, e); err != nil || e.err != nil || !placed {
			return err
		}
		var got []uint64
		for _, j := range journal(n)[before:] {
			got = append(got, j.Batch.Seq)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("quarantined %v; past the common prefix were %v", got, want)
		}
		return nil
	}, node)
}

// ratings is repo's ratings bucket. ratingKey keys a rating by the
// software ID and then the user name, escaped by storedb.AppendString; a
// batch op's key is the bucket, a zero byte, and that key.
const ratings = "r"

// checkedAudit publishes scores on node, failing the run unless every vote
// a step saw acked is stored on the node or written by a batch in some
// node's recovery journal, vote by vote: the journal must hold that vote's
// own ratings key, not merely another write on its software. It fails too
// if the key it builds stops finding the node's stored ratings, which
// would make the journal search vacuous.
func checkedAudit(node string) step {
	return mk("checkedAudit", func(r *trace, _ *event) error {
		n := r.t.node(node)
		if err := n.srv.RunAggregation(); err != nil {
			return err
		}
		quarantined := map[string]bool{}
		for _, m := range r.t.nodes {
			for _, j := range journal(m) {
				for _, op := range j.Batch.Ops {
					quarantined[string(op.Key)] = quarantined[string(op.Key)] || !op.Delete
				}
			}
		}
		for _, ev := range r.events {
			for _, v := range ev.votes {
				key := storedb.AppendString(append([]byte(nil), v.software[:]...), v.agent)
				var raw bool
				if err := n.store.DB().View(func(tx *storedb.Tx) error { _, raw = tx.MustBucket(ratings).Get(key); return nil }); err != nil {
					return err
				}
				_, ok, err := n.store.GetRating(v.software, v.agent)
				switch {
				case err != nil:
					return err
				case ok != raw:
					return fmt.Errorf("%s's rating of %s: GetRating %v, its key in bucket %q %v: the key layout moved", v.agent, v.software, ok, ratings, raw)
				case !ok && !quarantined[ratings+"\x00"+string(key)]:
					return fmt.Errorf("%s's acked vote on %s neither stored nor quarantined", v.agent, v.software)
				}
			}
		}
		return nil
	}, node)
}

// journal is what n's puller has quarantined.
func journal(n *tierNode) []replication.JournalEntry {
	if n.rep == nil || n.rep.Journal == nil {
		return nil
	}
	return n.rep.Journal.Entries()
}

// pastCommon lists the sequence numbers of n's batches past the last
// prefix its chain shares with its primary's: what a divergence repair
// must quarantine. placed is false when no position down to where either
// chain's retained digests end matches: neither this check nor the
// replica can then place the fork (a primary restored from a snapshot
// past n's position answers its pull 410 and n bootstraps).
func pastCommon(t *Tier, n *tierNode) (seqs []uint64, placed bool) {
	db := n.store.DB()
	src := t.nodes[slices.IndexFunc(t.nodes, func(m *tierNode) bool { return m.ts.URL == n.rep.Primary })].store.DB()
	s := min(db.Seq(), src.Seq())
	for ; s > 0; s-- {
		a, ok := db.DigestAt(s)
		b, srcOK := src.DigestAt(s)
		if !ok || !srcOK {
			return nil, false
		}
		if a == b {
			break
		}
	}
	_ = db.Since(s, 0, func(b storedb.Batch) error {
		seqs = append(seqs, b.Seq)
		return nil
	})
	return seqs, true
}

// tierEpisode is one drawn episode: its steps, and the node it promotes
// or rejoins, if any.
type tierEpisode struct {
	steps              []step
	promoted, rejoined string
}

// tierModel is what the generator believes of the tier: the primary last
// promoted, and the primaries promotions deposed that have not rejoined.
// Every other node is a replica following the primary.
type tierModel struct {
	primary string
	deposed []string
}

func (m *tierModel) apply(ep tierEpisode) {
	if ep.promoted != "" {
		m.deposed, m.primary = append(m.deposed, m.primary), ep.promoted
	}
	m.deposed = slices.DeleteFunc(m.deposed, func(n string) bool { return n == ep.rejoined })
}

func (m *tierModel) replicas(nodes []string) []string {
	return slices.DeleteFunc(slices.Clone(nodes), func(n string) bool { return n == m.primary || slices.Contains(m.deposed, n) })
}

// tierSteps returns the schedule episodes make: their steps, then the net
// healed, every deposed primary demoted under the primary, every other
// node pulled, the primary audited, and every replica caught up (the
// audit published scores) to a converged tier.
func tierSteps(nodes []string) func(...tierEpisode) []step {
	return func(eps ...tierEpisode) []step {
		m := tierModel{primary: "p"}
		var steps []step
		for _, ep := range eps {
			steps = append(steps, ep.steps...)
			m.apply(ep)
		}
		steps = append(steps, heal())
		var pulls []step
		for _, n := range nodes {
			if slices.Contains(m.deposed, n) {
				steps = append(steps, demote(n, m.primary))
			}
			if n != m.primary {
				pulls = append(pulls, checkedPull(n))
			}
		}
		return append(append(steps, pulls...), checkedAudit(m.primary), catchUp())
	}
}

// tierGen draws a tier schedule's episodes from its model of the tier.
type tierGen struct {
	rng   *rand.Rand
	nodes []string
	tierModel
}

func drawTier(rng *rand.Rand, nodes []string) []tierEpisode {
	g := &tierGen{rng: rng, nodes: nodes, tierModel: tierModel{primary: "p"}}
	var eps []tierEpisode
	for n := 3 + rng.Intn(5); n > 0; n-- {
		ep := tierEpisode{steps: g.traffic()}
		switch reps := g.replicas(nodes); rng.Intn(4) {
		case 1:
			ep.steps = g.partition()
		case 2:
			if len(reps) > 0 {
				ep = g.promotion(reps)
			}
		case 3:
			if len(g.deposed) > 0 {
				d := g.deposed[g.rng.Intn(len(g.deposed))]
				ep = tierEpisode{steps: []step{demote(d, g.primary), checkedPull(d)}, rejoined: d}
			}
		}
		g.apply(ep)
		eps = append(eps, ep)
	}
	return eps
}

// traffic is a vote through p (in process), the stale client or the
// failover client, with or without a fresh login; lookups through both
// clients; or the stale client told the failover client's epoch.
func (g *tierGen) traffic() []step {
	via := []string{"p", "stale", "fo"}[g.rng.Intn(3)]
	switch g.rng.Intn(6) {
	case 0:
		return []step{lookups(1+g.rng.Intn(4), "fo", "stale")}
	case 1:
		return []step{passEpoch("fo", "stale")}
	default:
		return []step{vote(1+g.rng.Intn(4), via, via != "p" && g.rng.Intn(2) == 0)}
	}
}

// partition cuts one to three random links — two-way, timed, or losing
// one direction's replies — runs traffic under the cuts, maybe has a
// replica pull and the clock move, and heals the net.
func (g *tierGen) partition() []step {
	ends := append(slices.Clone(g.nodes), "client")
	var steps []step
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		i := g.rng.Intn(len(ends))
		a, b := ends[i], ends[(i+1+g.rng.Intn(len(ends)-1))%len(ends)]
		switch g.rng.Intn(3) {
		case 0:
			steps = append(steps, cut(a, b))
		case 1:
			steps = append(steps, cutFor(a, b, time.Duration(1+g.rng.Intn(60))*time.Minute))
		default:
			steps = append(steps, loseReplies(a, b))
		}
	}
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		steps = append(steps, g.traffic()...)
	}
	if reps := g.replicas(g.nodes); len(reps) > 0 && g.rng.Intn(2) == 0 {
		steps = append(steps, checkedPull(reps[g.rng.Intn(len(reps))]))
	}
	if g.rng.Intn(2) == 0 {
		steps = append(steps, advance(time.Duration(1+g.rng.Intn(60))*time.Minute))
	}
	return append(steps, heal())
}

// promotion promotes a replica, re-aims the others at it, and has the
// failover client probe past its cache. Epochs are not allocated by
// consensus: Promote commits the node's own epoch + 1, so two nodes
// promoted from one epoch would be two primaries in one. A node is
// promoted only once it has applied the highest epoch any node holds:
// here it pulls from the primary, which holds it, over the links a
// partition episode always heals.
func (g *tierGen) promotion(reps []string) tierEpisode {
	x := reps[g.rng.Intn(len(reps))]
	steps := []step{checkedPull(x), promote(x)}
	for _, r := range reps {
		if r != x {
			steps = append(steps, demote(r, x))
		}
	}
	return tierEpisode{steps: append(steps, advance(2*time.Second), probe("fo", x)), promoted: x}
}

// shrink drops whole episodes, first to last, while the schedule build
// makes of the rest still fails as err did (the same message, numbers
// aside), and returns the smallest such schedule.
func shrink[E any](eps []E, build func(...E) []step, run func([]step) error, err error) []step {
	kind := func(err error) string {
		return strings.Map(func(r rune) rune {
			if unicode.IsDigit(r) {
				return -1
			}
			return r
		}, err.Error())
	}
	for i := 0; i < len(eps); {
		rest := slices.Delete(slices.Clone(eps), i, i+1)
		if e := run(build(rest...)); e != nil && kind(e) == kind(err) {
			eps = rest
		} else {
			i++
		}
	}
	return build(eps...)
}

// literal prints steps as a Go literal, to paste into a pinned list.
func literal(steps []step) string {
	var b strings.Builder
	b.WriteString("{\n")
	for _, st := range steps {
		fmt.Fprintf(&b, "\t%s,\n", st.lit)
	}
	b.WriteString("},")
	return b.String()
}
