package simulation

import (
	"reflect"
	"testing"
)

// TestReplicationExperiment runs E18 at reduced scale and checks the
// issue's acceptance bar: fresh-lookup availability at least 99%
// through a replica partition and a primary kill, with zero
// acknowledged ratings lost, while the single-server baseline visibly
// degrades. The heal after the partition must be a sequence-number
// resume, not a snapshot re-bootstrap.
func TestReplicationExperiment(t *testing.T) {
	res, err := runEntry[ReplicationResult]("e18", 7, true)
	if err != nil {
		t.Fatal(err)
	}

	if res.Availability < 0.99 {
		t.Fatalf("failover availability = %.4f, want >= 0.99", res.Availability)
	}
	if res.BaselineAvailability >= res.Availability {
		t.Fatalf("baseline availability %.4f did not degrade below failover's %.4f",
			res.BaselineAvailability, res.Availability)
	}
	if res.AckedVotes == 0 {
		t.Fatal("no ratings acknowledged; the run tested nothing")
	}
	if res.LostVotes != 0 {
		t.Fatalf("lost %d acked ratings (acked %d, stored %d)",
			res.LostVotes, res.AckedVotes, res.StoredVotes)
	}
	if res.Resumes == 0 {
		t.Fatal("healed replica recorded no resume")
	}
	if res.BootstrapsAtEnd != res.BootstrapsAtStart {
		t.Fatalf("heal re-bootstrapped: snapshots %d -> %d",
			res.BootstrapsAtStart, res.BootstrapsAtEnd)
	}
	if res.PartitionPullFails == 0 {
		t.Fatal("partition produced no failed pulls; the fault window never applied")
	}

	// The promotion phase must have landed writes on the new primary.
	last := res.Phases[len(res.Phases)-1]
	if last.VotesAcked == 0 {
		t.Fatal("no ratings acked after promotion")
	}
	if last.BaselineFailed != last.Lookups {
		t.Fatalf("baseline answered %d/%d lookups with a dead primary",
			last.Lookups-last.BaselineFailed, last.Lookups)
	}
}

// TestAuditRefusesUnackedVote lands one rating after the acked count
// was taken: the stored-vote audit E18 and E22 end on must report the
// surplus as an error, not as zero lost.
func TestAuditRefusesUnackedVote(t *testing.T) {
	tier, err := NewTier(TierConfig{Seed: 5, Programs: 20, Users: 4, VotesPerAgent: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	p := tier.nodes[0]
	if _, err := tier.auditVotes(p, tier.seeded); err != nil {
		t.Fatalf("audit of the seeded tier: %v", err)
	}
	if tier.voteWalk(1, nil, false) != 1 {
		t.Fatal("the extra vote did not land")
	}
	stored, err := tier.auditVotes(p, tier.seeded)
	if err == nil || stored != tier.seeded+1 {
		t.Fatalf("audit with one un-acked vote: stored %d of %d acked, err %v", stored, tier.seeded, err)
	}
}

// TestReplicationDeterminism re-runs quick E18 with one seed and
// expects identical results, equal field by field to the pinned ones:
// the experiment is driven by the virtual clock and seeded randomness
// only.
func TestReplicationDeterminism(t *testing.T) {
	a, err := runEntry[ReplicationResult]("e18", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEntry[ReplicationResult]("e18", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs with one seed diverged:\n%+v\n%+v", a, b)
	}
	want := ReplicationResult{
		Config: ReplicationConfig{
			Seed: 3, Programs: 60, Users: 16, VotesPerAgent: 8,
			Replicas: 2, LookupsPerPhase: 60, VotesPerPhase: 20,
		},
		Phases: []ReplicationPhase{
			{Name: "healthy", Lookups: 60},
			{Name: "replica partitioned", Lookups: 60, VotesAcked: 20},
			{Name: "primary killed, replica promoted", Lookups: 60, BaselineFailed: 60, VotesAcked: 20},
		},
		Availability: 1, BaselineAvailability: 120.0 / 180,
		AckedVotes: 168, StoredVotes: 168,
		Resumes: 1, PartitionPullFails: 1,
		ReadFailovers: 1, PrimarySwitches: 1,
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("E18 moved off its pin:\n got %+v\nwant %+v", a, want)
	}
}
