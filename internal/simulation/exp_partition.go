package simulation

import (
	"context"
	"fmt"
	"strings"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/replication"
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

// DefaultPartitionConfig is the full-scale E22 grid.
func DefaultPartitionConfig(seed int64) PartitionConfig {
	return PartitionConfig{
		Seed: seed, Programs: 100, Users: 30, VotesPerAgent: 10,
		Stragglers: 8, StageWrites: 24, Lookups: 40,
		Cells: []string{CellIsolation, CellSplitClient, CellReplyLoss},
	}
}

// QuickPartitionConfig is the reduced grid: the two divergence-heavy
// cells at small scale, cheap enough for a short-mode race smoke.
func QuickPartitionConfig(seed int64) PartitionConfig {
	return PartitionConfig{
		Seed: seed, Programs: 60, Users: 16, VotesPerAgent: 6,
		Stragglers: 4, StageWrites: 10, Lookups: 15,
		Cells: []string{CellSplitClient, CellReplyLoss},
	}
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

// runPartitionCell drives one grid cell end to end on a fresh tier: P
// plus replicas R1 and R2, each mounting its own WAL publisher so that
// either can serve the stream after a promotion.
func runPartitionCell(cfg PartitionConfig, cellName string) (PartitionCell, error) {
	cell := PartitionCell{Name: cellName}
	ctx := context.Background()

	// Seed history and ship it everywhere.
	t, err := NewTier(TierConfig{
		Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, ExpertFrac: 0.3,
		VotesPerAgent: cfg.VotesPerAgent, Replicas: 2,
	})
	if err != nil {
		return cell, err
	}
	defer t.Close()
	w := t.World
	pnet := t.net
	pDB := w.Store().DB()
	r1, r2 := t.nodes[1], t.nodes[2]
	r1URL := r1.ts.URL
	cell.AckedVotes = t.seeded
	if err := t.SyncAll(ctx); err != nil {
		return cell, err
	}
	commonSeq := pDB.Seq() // the last batch every node agrees on

	// Stragglers: the primary acks ratings that never ship — the cut
	// lands before the next replica pull.
	if t.voteWalk(cfg.Stragglers, nil, false) == 0 {
		return cell, fmt.Errorf("partition: no straggler ratings landed; the cell tests nothing")
	}

	// Install the cell's partition shape.
	switch cellName {
	case CellIsolation:
		pnet.CutFor("p", "r1", time.Hour)
		pnet.CutFor("p", "r2", time.Hour)
		pnet.CutFor("p", "client", time.Hour)
	case CellSplitClient:
		pnet.Cut("p", "r1")
		pnet.Cut("p", "r2")
	case CellReplyLoss:
		pnet.Cut("p", "r1")
		pnet.Cut("p", "r2")
		pnet.LoseReplies("client", "p")
	default:
		return cell, fmt.Errorf("partition: unknown cell %q", cellName)
	}

	// The operator promotes R1 mid-partition. The old primary is still
	// alive and still believes it is primary on the far side of the cut.
	if err := r1.srv.Promote(); err != nil {
		return cell, fmt.Errorf("promote r1: %w", err)
	}
	r2.rep.Primary = r1URL // R2 re-aims at the new primary

	// Stage A — the split-brain window. staleAPI models a client whose
	// endpoint list still names only the old primary; its in-process
	// sessions are valid over HTTP, so where the link allows, its votes
	// carry straight into the deposed node and get acked there. The
	// failover client keeps serving lookups off the surviving replicas.
	fo := client.NewFailoverAPI(t.Endpoints(), t.Client("client", nil))
	fo.Failover().Clock = w.Clock
	lookups := func() {
		for i := 0; i < cfg.Lookups; i++ {
			cell.Lookups++
			if _, err := fo.Lookup(ctx, MetaOf(w.Catalog.Items[i%len(w.Catalog.Items)])); err != nil {
				cell.LookupFailures++
			}
		}
	}
	staleAPI := client.NewFailoverAPI(t.Endpoints()[:1], t.Client("client", nil))
	staleAPI.Failover().Clock = w.Clock
	seqBeforeStageA := pDB.Seq()
	cell.StaleAcked = t.voteWalk(cfg.StageWrites, staleAPI, false)
	cell.SilentApplies = int(pDB.Seq()-seqBeforeStageA) - cell.StaleAcked
	lookups()

	// Stage B — the tier-aware client discovers the promotion: the
	// probe cache expires, the sweep sees both claimed primaries and
	// picks the higher epoch. Sessions lived in the old primary's
	// memory, so the voters log in again through the failover client.
	w.Clock.Advance(2 * time.Second) // past the probe TTL
	if got := fo.Failover().Probe(ctx); got != r1URL {
		return cell, fmt.Errorf("partition: probe picked %q, want promoted %q", got, r1URL)
	}
	cell.FencedAcked = t.voteWalk(cfg.StageWrites, fo, true)
	if cell.FencedAcked == 0 {
		return cell, fmt.Errorf("partition: no ratings landed on the new primary")
	}
	cell.AckedVotes += cell.FencedAcked
	lookups()

	// Heal. The isolation cell's timed cuts expire on the clock; the
	// others are reopened explicitly.
	if cellName == CellIsolation {
		w.Clock.Advance(time.Hour)
	} else {
		pnet.HealAll()
	}

	// Fencing: the stale client hears about the new epoch (any response
	// from the new primary would teach it) and reaches the deposed
	// primary again. The first epoch-bearing contact fences it — reads
	// still serve, writes 503 — so it can never dual-ack.
	staleAPI.Failover().ObserveEpoch(fo.Failover().Epoch())
	if _, err := staleAPI.Stats(ctx); err != nil {
		return cell, fmt.Errorf("partition: first epoch-bearing read failed: %w", err)
	}
	if !w.Server.Fenced() {
		return cell, fmt.Errorf("partition: deposed primary did not fence on first epoch-bearing contact")
	}
	cell.DualAcked = t.voteWalk(cfg.StageWrites/2, staleAPI, false)
	if cell.DualAcked != 0 {
		return cell, fmt.Errorf("partition: %d writes dual-acked by the fenced primary", cell.DualAcked)
	}
	if _, err := staleAPI.Stats(ctx); err != nil {
		return cell, fmt.Errorf("partition: fenced primary stopped serving reads: %w", err)
	}
	cell.FencedReadOK = true

	// Repair: the deposed primary rejoins as a replica of R1. Its
	// stale tail — stragglers, stale acks, silent applies — diverges
	// from the new timeline; the resync must quarantine every batch of
	// it to the journal and converge on the new history.
	cell.StaleTail = pDB.Seq() - commonSeq
	w.Server.DemoteToReplica(r1URL)
	repP := &replication.Replica{
		DB:      pDB,
		Primary: r1URL,
		ID:      "p",
		Client:  t.Client("p", nil),
		Journal: &replication.RecoveryJournal{},
	}
	if err := repP.Sync(ctx); err != nil {
		return cell, fmt.Errorf("partition: demoted primary resync: %w", err)
	}
	if err := t.SyncAll(ctx); err != nil {
		return cell, err
	}

	st := repP.Stats()
	cell.Diverged = st.Diverged
	cell.Bootstraps = st.SnapshotBootstraps
	cell.Truncations = st.Truncations
	cell.Quarantined = st.QuarantinedBatches
	cell.JournalEntries = repP.Journal.Len()
	if cell.Diverged == 0 {
		return cell, fmt.Errorf("partition: demoted primary never detected its fork")
	}
	if cell.Quarantined != cell.StaleTail {
		return cell, fmt.Errorf("partition: stale tail %d batches, quarantined %d — batches silently dropped or kept",
			cell.StaleTail, cell.Quarantined)
	}
	if cell.JournalEntries != int(cell.Quarantined) {
		return cell, fmt.Errorf("partition: quarantined %d batches but journal holds %d",
			cell.Quarantined, cell.JournalEntries)
	}

	// Audit on the new primary: the surviving timeline holds exactly the
	// seed plus the fenced-acked ratings. Then ship the scores, and all
	// three stores must be byte-identical.
	cell.StoredVotes, err = t.auditVotes(r1, cell.AckedVotes)
	if err != nil {
		return cell, fmt.Errorf("partition: %w", err)
	}
	if err := repP.Sync(ctx); err != nil {
		return cell, err
	}
	if err := t.SyncAll(ctx); err != nil {
		return cell, err
	}
	cell.FinalSeq, cell.FinalDigest, err = t.converged()
	if err != nil {
		return cell, fmt.Errorf("partition: post-heal tier did not converge: %w", err)
	}
	cell.Converged = true
	return cell, nil
}

// RunPartition executes E22.
func RunPartition(cfg PartitionConfig) (PartitionResult, error) {
	res := PartitionResult{Config: cfg}
	for _, name := range cfg.Cells {
		cell, err := runPartitionCell(cfg, name)
		if err != nil {
			return res, fmt.Errorf("cell %q: %w", name, err)
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
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
