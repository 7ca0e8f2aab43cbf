package simulation

import (
	"fmt"
	"strings"
	"time"
)

// Experiment E18 — replication: fresh-lookup availability and rating
// durability over a replicated reputation tier. One primary ships its
// WAL to pull-based replicas; a failover client spreads reads over the
// tier and aims writes at the primary. The run walks three phases —
// healthy, a replica partitioned and healed (resuming by sequence
// number, no re-bootstrap), and the primary killed with a replica
// promoted in its place — and compares lookup availability against a
// single-server client over the same schedule. The durability claim
// under test: no rating acknowledged to a user is lost across the
// failover, and none is stored that nobody acknowledged.

// ReplicationConfig sizes E18.
type ReplicationConfig struct {
	Seed          int64
	Programs      int // catalog size
	Users         int
	VotesPerAgent int // seed votes before the faults start
	Replicas      int // replica count (the first one gets partitioned)

	// LookupsPerPhase is how many fresh lookups each phase issues
	// through both the failover client and the single-server baseline.
	LookupsPerPhase int
	// VotesPerPhase is how many additional ratings each fault phase
	// tries to land (partition phase on the primary, promotion phase on
	// the new primary).
	VotesPerPhase int
}

// ReplicationPhase is one phase row of the E18 table.
type ReplicationPhase struct {
	Name string
	// Lookups / Failed count the failover client's fresh lookups.
	Lookups int
	Failed  int
	// BaselineFailed counts the single-server client's failures over
	// the same lookups.
	BaselineFailed int
	// VotesAcked is how many ratings were acknowledged this phase.
	VotesAcked int
}

// ReplicationResult reports E18.
type ReplicationResult struct {
	Config ReplicationConfig
	Phases []ReplicationPhase

	// Availability is the fraction of all fresh lookups the failover
	// client got answered; BaselineAvailability is the single-server
	// client's fraction over the identical schedule.
	Availability         float64
	BaselineAvailability float64

	// AckedVotes is every rating acknowledged across the run;
	// StoredVotes is how many ratings the promoted primary's store
	// holds at the end; LostVotes is the shortfall.
	AckedVotes  int
	StoredVotes int
	LostVotes   int

	// Partitioned-replica counters: the heal must be a resume, not a
	// re-bootstrap.
	Resumes            uint64
	BootstrapsAtStart  uint64
	BootstrapsAtEnd    uint64
	PartitionPullFails uint64

	// Failover-client counters.
	ReadFailovers     uint64
	RedirectsFollowed uint64
	PrimarySwitches   uint64
}

// RunReplication executes E18: one schedule on a fresh tier, projected
// onto its result.
func RunReplication(cfg ReplicationConfig) (ReplicationResult, error) {
	res := ReplicationResult{Config: cfg}
	s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, ExpertFrac: 0.3,
		VotesPerAgent: cfg.VotesPerAgent, Replicas: cfg.Replicas}}
	// Bring the replicas up to the seeded primary (a fresh replica
	// bootstraps from a snapshot when the primary's batch ring has rolled
	// past the start of history). Every phase issues its fresh lookups
	// through the failover client and the single-server baseline.
	start := s.add(catchUp())
	healthy := s.add(lookups(cfg.LookupsPerPhase, "fo", "baseline"))
	// Phase 2 — replica 0's pulls cut off from the primary for an hour of
	// virtual time while writes land on the primary and the other replicas
	// tail; then the cut heals on the clock and replica 0 must resume from
	// its own sequence number without a new snapshot.
	s.add(advance(90*time.Minute), cutFor("r1", "p", time.Hour))
	partVotes := s.add(vote(cfg.VotesPerPhase, "p", false))
	var pulls []int
	for i := 2; i <= cfg.Replicas; i++ {
		pulls = append(pulls, s.add(pull(fmt.Sprintf("r%d", i))))
	}
	cutPull := s.add(pull("r1"))
	part := s.add(lookups(cfg.LookupsPerPhase, "fo", "baseline"))
	healed := s.add(advance(time.Hour), pull("r1"))
	// Phase 3 — every replica in sync, the primary killed, replica 0
	// promoted. Sessions lived in the primary's memory: agents log in
	// again, through the failover client, against the promoted server.
	s.add(catchUp(), kill("p"), promote("r1"))
	promoVotes := s.add(vote(cfg.VotesPerPhase, "fo", true))
	promo := s.add(lookups(cfg.LookupsPerPhase, "fo", "baseline"))
	// Durability audit on the promoted primary: a rating short of the
	// acknowledged total is lost history, one over it a write nobody
	// acknowledged.
	audited := s.add(audit("r1", []int{partVotes, promoVotes}))
	tr, err := runSchedule(s)
	if err != nil {
		return res, err
	}

	ev := tr.events
	r1 := func(i int) nodeState { return ev[i].nodes[1] }
	switch {
	case ev[cutPull].err == nil:
		return res, fmt.Errorf("replication: partitioned replica synced through the partition")
	case ev[healed].err != nil:
		return res, fmt.Errorf("replication: heal: %w", ev[healed].err)
	case ev[healed].nodes[0].seq != r1(healed).seq:
		return res, fmt.Errorf("replication: healed replica still lags %d batches", ev[healed].nodes[0].seq-r1(healed).seq)
	}
	for _, i := range pulls {
		if err := ev[i].err; err != nil {
			return res, err
		}
	}
	phase := func(name string, lookups int) ReplicationPhase {
		return ReplicationPhase{Name: name, Lookups: cfg.LookupsPerPhase, Failed: ev[lookups].failed[0], BaselineFailed: ev[lookups].failed[1]}
	}
	res.Phases = []ReplicationPhase{phase("healthy", healthy), phase("replica partitioned", part), phase("primary killed, replica promoted", promo)}
	res.Phases[1].VotesAcked, res.Phases[2].VotesAcked = ev[partVotes].acked, ev[promoVotes].acked
	total, failed, baseFailed := 0, 0, 0
	for _, ph := range res.Phases {
		total += ph.Lookups
		failed += ph.Failed
		baseFailed += ph.BaselineFailed
	}
	if total > 0 {
		res.Availability, res.BaselineAvailability = float64(total-failed)/float64(total), float64(total-baseFailed)/float64(total)
	}
	res.BootstrapsAtStart, res.PartitionPullFails = r1(start).repl.SnapshotBootstraps, r1(healed).repl.Errors
	res.Resumes, res.BootstrapsAtEnd = r1(audited).repl.Resumes, r1(audited).repl.SnapshotBootstraps
	fst := tr.apis["fo"].Failover().Stats()
	res.ReadFailovers, res.RedirectsFollowed, res.PrimarySwitches = fst.ReadFailovers, fst.RedirectsFollowed, fst.PrimarySwitches
	res.AckedVotes, res.StoredVotes = tr.t.seeded+ev[partVotes].acked+ev[promoVotes].acked, ev[audited].stored
	if res.LostVotes = res.AckedVotes - res.StoredVotes; ev[audited].err != nil {
		return res, fmt.Errorf("replication: %w", ev[audited].err)
	}
	return res, nil
}

// String renders E18.
func (r ReplicationResult) String() string {
	var b strings.Builder
	b.WriteString("E18 — replication: availability and durability over a replicated tier\n")
	fmt.Fprintf(&b, "topology: 1 primary + %d replicas; replica 0 partitioned then healed; primary killed, replica 0 promoted\n\n", r.Config.Replicas)
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "  %-34s lookups %4d  failover-failed %3d  single-server-failed %3d  votes acked %3d\n",
			ph.Name, ph.Lookups, ph.Failed, ph.BaselineFailed, ph.VotesAcked)
	}
	fmt.Fprintf(&b, "\nfresh-lookup availability: failover client %.4f, single-server baseline %.4f\n",
		r.Availability, r.BaselineAvailability)
	fmt.Fprintf(&b, "ratings: acked %d, stored after promotion %d, lost %d\n",
		r.AckedVotes, r.StoredVotes, r.LostVotes)
	fmt.Fprintf(&b, "partitioned replica: %d failed pulls, %d resumes, snapshot bootstraps %d -> %d (heal is a resume, not a re-bootstrap)\n",
		r.PartitionPullFails, r.Resumes, r.BootstrapsAtStart, r.BootstrapsAtEnd)
	fmt.Fprintf(&b, "failover client: %d read failovers, %d redirects followed, %d primary switches\n",
		r.ReadFailovers, r.RedirectsFollowed, r.PrimarySwitches)
	b.WriteString("acked ratings survive the primary's death because replicas were in sync when it died;\n")
	b.WriteString("the single-server client loses every lookup after the kill, the failover client none.\n")
	return b.String()
}
