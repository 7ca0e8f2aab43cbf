package simulation

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

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
// failure prints its schedule as step literals: that schedule becomes a
// pinned case.
func TestDiskSchedules(t *testing.T) {
	const perSeed = 25
	start := time.Now()
	var runs, fired int
	ops := map[string]int{}
	run := func(name string, steps []step, seed int64) {
		t.Helper()
		tr, err := runSchedule(schedule{seed: seed, bucket: "gen", replicas: 1, steps: steps,
			// Manual compaction only: no background compactor truncates
			// the WAL between the write before a flip and the flip.
			opts: storedb.Options{SyncWrites: true, CompactEvery: -1}})
		if err == nil {
			err = checkTrace(steps, tr)
		}
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, goSteps(steps))
		}
		runs++
		fired += tr.fired
		for _, st := range steps {
			ops[st.op]++
		}
	}
	for i, steps := range pinnedSchedules {
		run(fmt.Sprintf("pinned schedule %d", i), steps, int64(i))
	}
	fresh := time.Now().UnixNano()
	t.Logf("fresh seed %d", fresh)
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, fresh} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perSeed; i++ {
			run(fmt.Sprintf("seed %d schedule %d", seed, i), drawSteps(rng), seed)
		}
	}
	t.Logf("%d schedules in %v: %d faults fired, %d flips, %d crashes",
		runs, time.Since(start).Round(time.Millisecond), fired, ops["flip"], ops["crash"])
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
		e := tr.events[i]
		switch {
		case e.unexpected > 0:
			return fmt.Errorf("step %d: %d writes failed with an error that is not a refusal", i, e.unexpected)
		case st.op == "flip":
			flipped = st.file
		case st.op == "scrub":
			corrupt = errors.Is(e.err, storedb.ErrCorrupt) && !e.scrub.Clean
			if flipped == "" && e.err != nil || flipped != "" && !(corrupt && contains(units[flipped], e.scrub.Unit)) {
				return fmt.Errorf("step %d: scrub after a flip of %q: unit %q, %v", i, flipped, e.scrub.Unit, e.err)
			}
			flipped = ""
		case st.op == "probe" && st.read != "" && corrupt && (!e.read || !errors.Is(e.err, storedb.ErrStorageCorrupt)):
			return fmt.Errorf("step %d: corrupt store: read served %v, write %v", i, e.read, e.err)
		case st.op == "probe" && st.read == "" && e.err != nil:
			return fmt.Errorf("step %d: write after recovery: %v", i, e.err)
		case st.op == "repair" && (e.err != nil || !e.converged):
			return fmt.Errorf("step %d: repair: %v, converged %v", i, e.err, e.converged)
		case st.op == "verify" && (e.lost != 0 || e.resurrected != 0):
			return fmt.Errorf("step %d: %d of %d acked writes lost, %d of %d refused resurrected",
				i, e.lost, e.acked, e.resurrected, e.refused)
		}
		if st.op == "repair" {
			corrupt = false
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// gen draws one schedule's steps, episode by episode; every episode
// leaves the node writable and its ledger verified.
type gen struct {
	rng   *rand.Rand
	steps []step
	snap  bool // a SNAPSHOT file exists
}

func drawSteps(rng *rand.Rand) []step {
	g := &gen{rng: rng}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			g.writes()
		case 1:
			g.fault()
		case 2:
			g.rot()
		default:
			g.restart()
		}
	}
	return g.steps
}

func (g *gen) add(steps ...step) { g.steps = append(g.steps, steps...) }

// keys names a step's keys uniquely in the schedule.
func (g *gen) keys(verbs string) string { return fmt.Sprintf("s%d-%s", len(g.steps), verbs) }

func (g *gen) load(every int) step {
	return step{op: "load", n: 1 + g.rng.Intn(4), ops: 1 + g.rng.Intn(8), keys: g.keys("w%02d-%03d"), every: every}
}

// writes is healthy traffic: puts, a load, a compaction, a scrub, or a
// catch-up.
func (g *gen) writes() {
	switch g.rng.Intn(5) {
	case 0:
		g.add(step{op: "put", keys: g.keys("%03d"), n: 1 + g.rng.Intn(6)})
	case 1:
		g.add(g.load(g.rng.Intn(2) * (2 + g.rng.Intn(8))))
	case 2:
		g.add(step{op: "compact"})
		g.snap = true
	case 3:
		g.add(step{op: "scrub"})
	default:
		g.add(step{op: "catchUp"})
	}
}

// fault is one of E21's fault kinds, its offset, count (0: every match)
// and torn length drawn, under a load that compacts often enough for the
// snapshot-path kinds to fire, then recovery: a crash, or (but for the
// kill arm) a live reopen.
func (g *gen) fault() {
	kind := faultKinds[g.rng.Intn(len(faultKinds))]
	rule := kind.at(g.rng.Intn(10))
	rule.Count = g.rng.Intn(3)
	if rule.Op == storedb.FaultWrite {
		rule.Short = g.rng.Intn(12)
	}
	recovery := step{op: kind.recovery}
	if g.rng.Intn(2) == 0 {
		recovery.op = "crash"
	}
	g.add(step{op: "inject", rule: rule}, g.load(2+g.rng.Intn(6)), step{op: "heal"}, recovery,
		step{op: "verify"}, step{op: "probe", key: g.keys("after")})
}

// rot flips one bit at rest in either file, after a write that puts a
// frame in the WAL, then scrubs, probes, catches the replica up and
// repairs from it. A SNAPSHOT flip may run under a background load,
// which never writes that file here; a WAL flip may not: under a load it
// can land in a frame written but not yet acknowledged, which is not at
// rest, and which a scrub leaves to its next pass (it verifies what was
// acknowledged when it began).
func (g *gen) rot() {
	file, bg := "WAL", false
	if g.rng.Intn(2) == 0 {
		file, bg = "SNAPSHOT", g.rng.Intn(2) == 0
		if !g.snap {
			g.add(step{op: "compact"})
		}
	}
	w := step{op: "put", keys: g.keys("%03d"), n: 1 + g.rng.Intn(3)}
	g.add(w)
	if bg {
		l := g.load(0)
		l.bg = true
		g.add(l)
	}
	g.add(step{op: "flip", file: file, bit: g.rng.Int63()}, step{op: "scrub"},
		step{op: "probe", read: fmt.Sprintf(w.keys, 0), key: g.keys("probe")}, step{op: "join"},
		step{op: "catchUp"}, step{op: "repair"}, step{op: "verify"}, step{op: "probe", key: g.keys("after")})
	g.snap = true // the compaction above, or the repair, wrote one
}

// restart crashes or reopens a healthy node, then checks it.
func (g *gen) restart() {
	op := "reopen"
	if g.rng.Intn(2) == 0 {
		op = "crash"
	}
	g.add(step{op: op}, step{op: "verify"}, step{op: "catchUp"})
}

// goSteps prints steps as Go literals, their set fields only, to paste
// into pinnedSchedules.
func goSteps(steps []step) string {
	var b strings.Builder
	b.WriteString("[]step{\n")
	for _, st := range steps {
		v, sep := reflect.ValueOf(st), ""
		b.WriteString("\t{")
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			switch {
			case f.IsZero():
				continue
			case name == "rule":
				r := st.rule
				fmt.Fprintf(&b, "%srule: storedb.FaultRule{Op: %q, Label: %q, After: %d, Count: %d, Short: %d, Err: storedb.%s}",
					sep, r.Op, r.Label, r.After, r.Count, r.Short,
					map[error]string{storedb.ErrInjectedIO: "ErrInjectedIO", storedb.ErrInjectedNoSpace: "ErrInjectedNoSpace"}[r.Err])
			default:
				fmt.Fprintf(&b, "%s%s: %#v", sep, name, f)
			}
			sep = ", "
		}
		b.WriteString("},\n")
	}
	b.WriteString("}")
	return b.String()
}
