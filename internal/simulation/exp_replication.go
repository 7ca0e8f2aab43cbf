package simulation

import (
	"context"
	"fmt"
	"strings"
	"time"

	"softreputation/internal/client"
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

// DefaultReplicationConfig is the full-scale E18 run.
func DefaultReplicationConfig(seed int64) ReplicationConfig {
	return ReplicationConfig{
		Seed: seed, Programs: 120, Users: 40, VotesPerAgent: 20,
		Replicas: 2, LookupsPerPhase: 200, VotesPerPhase: 60,
	}
}

// QuickReplicationConfig is the reduced-scale E18 run.
func QuickReplicationConfig(seed int64) ReplicationConfig {
	return ReplicationConfig{
		Seed: seed, Programs: 60, Users: 16, VotesPerAgent: 8,
		Replicas: 2, LookupsPerPhase: 60, VotesPerPhase: 20,
	}
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

// RunReplication executes E18.
func RunReplication(cfg ReplicationConfig) (ReplicationResult, error) {
	res := ReplicationResult{Config: cfg}
	ctx := context.Background()

	// Seed the database and publish scores, then bring the replicas up
	// to date. A fresh replica starting from sequence zero bootstraps
	// from a snapshot when the primary's in-memory batch ring has
	// already rolled past the beginning of history.
	t, err := NewTier(TierConfig{
		Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, ExpertFrac: 0.3,
		VotesPerAgent: cfg.VotesPerAgent, Replicas: cfg.Replicas,
	})
	if err != nil {
		return res, err
	}
	defer t.Close()
	w := t.World
	res.AckedVotes = t.seeded
	if err := t.SyncAll(ctx); err != nil {
		return res, err
	}
	cut := t.nodes[1] // replica 0, the one partitioned and then promoted
	res.BootstrapsAtStart = cut.rep.Stats().SnapshotBootstraps

	failover := client.NewFailoverAPI(t.Endpoints(), t.Client("client", nil))
	baseline := client.NewAPI(t.Endpoints()[0], t.Client("baseline", nil))
	items := w.Catalog.Items

	// lookups issues the phase's fresh lookups through both clients.
	lookups := func(ph *ReplicationPhase) {
		for i := 0; i < cfg.LookupsPerPhase; i++ {
			meta := MetaOf(items[i%len(items)])
			ph.Lookups++
			if _, err := failover.Lookup(ctx, meta); err != nil {
				ph.Failed++
			}
			if _, err := baseline.Lookup(ctx, meta); err != nil {
				ph.BaselineFailed++
			}
		}
	}

	// Phase 1 — healthy tier.
	healthy := ReplicationPhase{Name: "healthy"}
	lookups(&healthy)
	res.Phases = append(res.Phases, healthy)

	// Phase 2 — replica 0's pulls cut off from the primary for an hour
	// of virtual time. Writes keep landing on the primary; the healthy
	// replica keeps tailing; lookups keep being answered. Then the cut
	// heals on the clock and the replica must resume from its own
	// sequence number without a new snapshot.
	w.Clock.Advance(90 * time.Minute)
	t.net.CutFor(cut.name, "p", time.Hour)
	part := ReplicationPhase{Name: "replica partitioned"}
	part.VotesAcked = t.voteWalk(cfg.VotesPerPhase, nil, false)
	res.AckedVotes += part.VotesAcked
	for _, n := range t.nodes[2:] {
		if err := n.rep.Sync(ctx); err != nil {
			return res, fmt.Errorf("%s sync: %w", n.name, err)
		}
	}
	if err := cut.rep.Sync(ctx); err == nil {
		return res, fmt.Errorf("replication: partitioned replica synced through the partition")
	}
	lookups(&part)
	res.Phases = append(res.Phases, part)

	w.Clock.Advance(time.Hour)
	if err := cut.rep.Sync(ctx); err != nil {
		return res, fmt.Errorf("replication: heal: %w", err)
	}
	if lag := cut.rep.Lag(); lag != 0 {
		return res, fmt.Errorf("replication: healed replica still lags %d batches", lag)
	}
	res.PartitionPullFails = cut.rep.Stats().Errors

	// Phase 3 — primary killed, replica 0 promoted. Every replica is in
	// sync at the moment of death, so every acknowledged rating has
	// already been shipped. Sessions lived in the primary's memory:
	// agents must log in again, through the failover client, against
	// the promoted server.
	if err := t.SyncAll(ctx); err != nil {
		return res, err
	}
	t.nodes[0].ts.Close()
	if err := cut.srv.Promote(); err != nil {
		return res, fmt.Errorf("promote replica 0: %w", err)
	}

	promo := ReplicationPhase{Name: "primary killed, replica promoted"}
	promo.VotesAcked = t.voteWalk(cfg.VotesPerPhase, failover, true)
	res.AckedVotes += promo.VotesAcked
	lookups(&promo)
	res.Phases = append(res.Phases, promo)

	// Durability audit on the promoted primary: a rating short of the
	// acknowledged total is lost history, one over it a write nobody
	// acknowledged.
	res.StoredVotes, err = t.auditVotes(cut, res.AckedVotes)
	res.LostVotes = res.AckedVotes - res.StoredVotes
	if err != nil {
		return res, fmt.Errorf("replication: %w", err)
	}

	st0 := cut.rep.Stats()
	res.Resumes = st0.Resumes
	res.BootstrapsAtEnd = st0.SnapshotBootstraps
	fst := failover.Failover().Stats()
	res.ReadFailovers = fst.ReadFailovers
	res.RedirectsFollowed = fst.RedirectsFollowed
	res.PrimarySwitches = fst.PrimarySwitches

	total, failed, baseFailed := 0, 0, 0
	for _, ph := range res.Phases {
		total += ph.Lookups
		failed += ph.Failed
		baseFailed += ph.BaselineFailed
	}
	if total > 0 {
		res.Availability = float64(total-failed) / float64(total)
		res.BaselineAvailability = float64(total-baseFailed) / float64(total)
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
