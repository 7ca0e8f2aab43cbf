package simulation

import (
	"fmt"
	"strings"
	"time"
)

// Experiment E22 — partition safety: split-brain over a replicated
// reputation tier. A three-node deployment (primary P, replicas R1 and
// R2) is driven through a grid of partition shapes from the
// PartitionNet injector; in each cell a replica is promoted *while the
// old primary is still alive and acking writes on the far side of the
// cut*. The claims under test are the fencing and repair invariants:
//
//   - zero dual-acked writes: once a client has observed the new
//     epoch, the deposed primary never acks another write from it —
//     the epoch header fences it on first contact;
//   - zero lost fenced-acked writes: every rating acked by the new
//     primary under the new epoch survives to the converged tier;
//   - no silent outcome for stale acks: every batch the deposed
//     primary committed after its last shipped one — acked stragglers,
//     split-brain acks, silent applies — is quarantined to the
//     recovery journal during divergence repair, never dropped and
//     never smuggled into the new timeline;
//   - post-heal convergence: after repair all three stores are
//     byte-identical (same sequence, same chain digest, same snapshot
//     bytes).

// Partition cell names.
const (
	// CellIsolation blackholes every link touching the primary with a
	// timed cut that heals on the virtual clock.
	CellIsolation = "primary isolated"
	// CellSplitClient cuts the primary off from the replicas only: a
	// client with a stale endpoint list keeps collecting acks from a
	// deposed primary.
	CellSplitClient = "split-brain client"
	// CellReplyLoss cuts the replica links and loses the replies on the
	// client->primary link: writes arrive and commit, acks vanish.
	CellReplyLoss = "reply loss"
)

// PartitionConfig sizes E22.
type PartitionConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int // seed votes before any cut

	// Stragglers is how many ratings the primary acks after the last
	// replica sync and before the cut — committed history the new
	// epoch never saw.
	Stragglers int
	// StageWrites is how many ratings each write stage tries to land.
	StageWrites int
	// Lookups is how many fresh lookups each stage issues.
	Lookups int
	// Cells selects the partition shapes to run.
	Cells []string
}

// PartitionCell is one cell row of the E22 grid.
type PartitionCell struct {
	Name string

	// StaleAcked counts ratings acked by the deposed primary after the
	// promotion — acks a fenced tier must quarantine, not honour.
	StaleAcked int
	// SilentApplies counts batches the deposed primary committed
	// without the writer ever seeing an ack (reply loss).
	SilentApplies int
	// FencedAcked counts ratings acked by the new primary under the
	// new epoch — the writes that must survive.
	FencedAcked int
	// DualAcked counts writes the deposed primary acked after this
	// client had observed the new epoch. The fencing claim is that
	// this is zero.
	DualAcked int
	// FencedReadOK records that the fenced primary still served reads.
	FencedReadOK bool

	// StaleTail is how many batches the deposed primary held beyond
	// the last shipped one; Quarantined and JournalEntries are what
	// divergence repair did with them.
	StaleTail      uint64
	Quarantined    uint64
	JournalEntries int
	Diverged       uint64
	Bootstraps     uint64
	Truncations    uint64

	// Lookups / LookupFailures count fresh lookups through the
	// failover client across the cell's stages.
	Lookups        int
	LookupFailures int

	// Converged reports byte-identical stores after heal and repair;
	// FinalSeq/FinalDigest are the converged chain position.
	Converged   bool
	FinalSeq    uint64
	FinalDigest uint64

	// AckedVotes is every rating acked on the surviving timeline (seed
	// + fenced-acked); StoredVotes is what the converged tier holds.
	AckedVotes  int
	StoredVotes int
}

// PartitionResult reports E22.
type PartitionResult struct {
	Config PartitionConfig
	Cells  []PartitionCell
}

// RunPartition executes E22: each cell is one schedule on a fresh tier of
// P plus replicas R1 and R2, projected onto its PartitionCell.
func RunPartition(cfg PartitionConfig) (PartitionResult, error) {
	res := PartitionResult{Config: cfg}
	for _, name := range cfg.Cells {
		cell, err := partitionCell(cfg, name)
		if err != nil {
			return res, fmt.Errorf("cell %q: %w", name, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// partitionCell runs one grid cell's schedule and projects its events onto
// the cell, failing on any broken invariant.
func partitionCell(cfg PartitionConfig, cellName string) (PartitionCell, error) {
	cell := PartitionCell{Name: cellName, Lookups: 2 * cfg.Lookups}
	s := schedule{cfg: TierConfig{Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, ExpertFrac: 0.3,
		VotesPerAgent: cfg.VotesPerAgent, Replicas: 2}}
	// Seed history and ship it everywhere; then stragglers, ratings the
	// primary acks that never ship: the cut lands before the next pull.
	common := s.add(catchUp())
	stragglers := s.add(vote(cfg.Stragglers, "p", false))
	healing := heal() // the others are reopened explicitly
	switch cellName {
	case CellIsolation: // timed cuts, which expire on the clock
		s.add(cutFor("p", "r1", time.Hour), cutFor("p", "r2", time.Hour), cutFor("p", "client", time.Hour))
		healing = advance(time.Hour)
	case CellSplitClient:
		s.add(cut("p", "r1"), cut("p", "r2"))
	case CellReplyLoss:
		s.add(cut("p", "r1"), cut("p", "r2"), loseReplies("client", "p"))
	default:
		return cell, fmt.Errorf("partition: unknown cell %q", cellName)
	}
	// The operator promotes R1 mid-partition, and R2 re-aims at it; the
	// old primary still believes it is primary on the far side of the cut.
	s.add(promote("r1"), demote("r2", "r1"))
	// Stage A — the split-brain window. The stale client knows only the
	// old primary, and its enrollment sessions are valid there, so where
	// the link allows its votes are acked by the deposed node. The failover
	// client keeps serving lookups off the surviving replicas.
	stale := s.add(vote(cfg.StageWrites, "stale", false))
	lookupsA := s.add(lookups(cfg.Lookups, "fo"))
	// Stage B — past its probe cache, the failover client sees both
	// claimed primaries and must pick R1's higher epoch; sessions lived in the
	// old primary's memory, so the voters log in again through it.
	s.add(advance(2*time.Second), probe("fo", "r1"))
	fenced := s.add(vote(cfg.StageWrites, "fo", true))
	lookupsB := s.add(lookups(cfg.Lookups, "fo"))
	// Heal. The stale client hears of the new epoch; its first contact
	// fences the deposed primary — reads serve, writes 503 — so it can
	// never dual-ack, and a second read shows it still serving.
	contact := s.add(healing, passEpoch("fo", "stale"))
	dual := s.add(vote(cfg.StageWrites/2, "stale", false))
	read := s.add(passEpoch("fo", "stale"))
	// Repair: the deposed primary rejoins under R1, and its resync must
	// quarantine every batch of its stale tail (stragglers, stale acks,
	// silent applies). R1 must then store exactly the seed plus the
	// fenced-acked ratings, and after its scores ship all three stores
	// must be byte-identical.
	rejoin := s.add(demote("p", "r1"), pull("p"))
	synced := s.add(pull("r2"))
	audited := s.add(audit("r1", []int{fenced}))
	final := s.add(catchUp())
	tr, err := runSchedule(s)
	if err != nil {
		return cell, err
	}

	ev := tr.events
	p := func(i int) nodeState { return ev[i].nodes[0] }
	st := p(rejoin).repl
	cell.StaleAcked, cell.FencedAcked, cell.DualAcked = ev[stale].acked, ev[fenced].acked, ev[dual].acked
	cell.SilentApplies = int(p(stale).seq-p(stale-1).seq) - cell.StaleAcked // the step before it is the re-aim
	cell.LookupFailures, cell.FencedReadOK = ev[lookupsA].failed[0]+ev[lookupsB].failed[0], ev[read].err == nil
	cell.StaleTail, cell.JournalEntries = p(read).seq-p(common).seq, tr.t.node("p").rep.Journal.Len()
	cell.Diverged, cell.Bootstraps, cell.Truncations, cell.Quarantined = st.Diverged, st.SnapshotBootstraps, st.Truncations, st.QuarantinedBatches
	cell.AckedVotes, cell.StoredVotes = tr.t.seeded+cell.FencedAcked, ev[audited].stored
	cell.Converged, cell.FinalSeq, cell.FinalDigest = ev[final].err == nil, p(final).seq, p(final).digest
	switch {
	case ev[stragglers].acked == 0:
		return cell, fmt.Errorf("partition: no straggler ratings landed; the cell tests nothing")
	case cell.FencedAcked == 0:
		return cell, fmt.Errorf("partition: no ratings landed on the new primary")
	case ev[contact].err != nil:
		return cell, fmt.Errorf("partition: first epoch-bearing read failed: %w", ev[contact].err)
	case !p(contact).fenced:
		return cell, fmt.Errorf("partition: deposed primary did not fence on first epoch-bearing contact")
	case cell.DualAcked != 0:
		return cell, fmt.Errorf("partition: %d writes dual-acked by the fenced primary", cell.DualAcked)
	case !cell.FencedReadOK:
		return cell, fmt.Errorf("partition: fenced primary stopped serving reads: %w", ev[read].err)
	case ev[rejoin].err != nil:
		return cell, fmt.Errorf("partition: demoted primary resync: %w", ev[rejoin].err)
	case ev[synced].err != nil:
		return cell, ev[synced].err
	case cell.Diverged == 0:
		return cell, fmt.Errorf("partition: demoted primary never detected its fork")
	case cell.Quarantined != cell.StaleTail:
		return cell, fmt.Errorf("partition: stale tail %d batches, quarantined %d — batches silently dropped or kept",
			cell.StaleTail, cell.Quarantined)
	case cell.JournalEntries != int(cell.Quarantined):
		return cell, fmt.Errorf("partition: quarantined %d batches but journal holds %d", cell.Quarantined, cell.JournalEntries)
	case ev[audited].err != nil:
		return cell, fmt.Errorf("partition: %w", ev[audited].err)
	case !cell.Converged:
		return cell, fmt.Errorf("partition: post-heal tier did not converge: %w", ev[final].err)
	}
	return cell, nil
}

// String renders E22.
func (r PartitionResult) String() string {
	var b strings.Builder
	b.WriteString("E22 — partition safety: epoch fencing and divergence repair under split-brain\n")
	b.WriteString("topology: primary P + replicas R1, R2; R1 promoted mid-partition while P still acks writes\n\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-20s stale-acked %2d  silent %3d  fenced-acked %2d  dual-acked %d  lookups %d/%d ok\n",
			c.Name, c.StaleAcked, c.SilentApplies, c.FencedAcked, c.DualAcked, c.Lookups-c.LookupFailures, c.Lookups)
		fmt.Fprintf(&b, "  %-20s stale tail %3d batches -> quarantined %3d (journal %3d), diverged %d, bootstraps %d, truncations %d\n",
			"", c.StaleTail, c.Quarantined, c.JournalEntries, c.Diverged, c.Bootstraps, c.Truncations)
		fmt.Fprintf(&b, "  %-20s converged %-5v at (seq %d, digest %016x); acked on surviving timeline %d, stored %d\n\n",
			"", c.Converged, c.FinalSeq, c.FinalDigest, c.AckedVotes, c.StoredVotes)
	}
	b.WriteString("every cell: zero dual-acks once the epoch is observed, every fenced-acked rating stored,\n")
	b.WriteString("every stale batch quarantined to the recovery journal, all three stores byte-identical after heal.\n")
	return b.String()
}
