package simulation

import "testing"

// TestPartitionExperiment runs the quick E22 grid — three nodes, the
// two divergence-heavy cells — and checks the issue's acceptance bar.
// RunPartition enforces the hard invariants itself (zero dual-acks,
// zero lost fenced-acked writes, full quarantine, byte-identical
// convergence) and returns an error on any violation; the test adds
// the signal checks that prove each cell exercised what it claims.
func TestPartitionExperiment(t *testing.T) {
	res, err := runEntry[PartitionResult]("e22", 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("quick grid ran %d cells, want 2", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.DualAcked != 0 {
			t.Fatalf("%s: %d dual-acked writes", c.Name, c.DualAcked)
		}
		if !c.Converged {
			t.Fatalf("%s: tier did not converge", c.Name)
		}
		if !c.FencedReadOK {
			t.Fatalf("%s: fenced primary refused reads", c.Name)
		}
		if c.Quarantined == 0 || c.JournalEntries == 0 {
			t.Fatalf("%s: no stale batches quarantined; the cell forked nothing", c.Name)
		}
		if c.FencedAcked == 0 {
			t.Fatalf("%s: no writes landed on the new primary", c.Name)
		}
	}

	// Cell-specific signals: the split-brain client must have collected
	// stale acks from the deposed primary; the reply-loss cell must
	// have produced silent applies (committed, never acked).
	byName := map[string]PartitionCell{}
	for _, c := range res.Cells {
		byName[c.Name] = c
	}
	if c := byName[CellSplitClient]; c.StaleAcked == 0 {
		t.Fatal("split-brain client collected no stale acks")
	}
	if c := byName[CellReplyLoss]; c.SilentApplies == 0 {
		t.Fatal("reply-loss cell committed nothing silently")
	}
	if c := byName[CellReplyLoss]; c.StaleAcked != 0 {
		t.Fatalf("reply-loss cell acked %d writes through a link that loses every reply", c.StaleAcked)
	}
}

// TestPartitionDeterminism re-runs quick E22 with one seed and expects
// identical results, equal to the pinned cells: the grid runs on the
// virtual clock and seeded randomness only. The chain digest is
// excluded — enrollment salts password hashes from crypto/rand, so WAL
// bytes are run-unique; the within-run byte-identity claim is
// Converged, which IS compared.
func TestPartitionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism re-run skipped in short mode")
	}
	a, err := runEntry[PartitionResult]("e22", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEntry[PartitionResult]("e22", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []PartitionCell{
		{Name: CellSplitClient, StaleAcked: 10, FencedAcked: 10, FencedReadOK: true,
			StaleTail: 18, Quarantined: 18, JournalEntries: 18, Diverged: 1, Bootstraps: 1,
			Lookups: 30, Converged: true, FinalSeq: 168, AckedVotes: 106, StoredVotes: 106},
		{Name: CellReplyLoss, SilentApplies: 55, FencedAcked: 10, FencedReadOK: true,
			StaleTail: 59, Quarantined: 59, JournalEntries: 59, Diverged: 1, Bootstraps: 1,
			Lookups: 30, Converged: true, FinalSeq: 172, AckedVotes: 106, StoredVotes: 106},
	}
	if len(a.Cells) != len(want) || len(b.Cells) != len(want) {
		t.Fatalf("ran %d and %d cells, want %d", len(a.Cells), len(b.Cells), len(want))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		ca.FinalDigest, cb.FinalDigest = 0, 0
		if ca != cb {
			t.Fatalf("two runs with one seed diverged in cell %q:\n%+v\n%+v",
				ca.Name, ca, cb)
		}
		if ca != want[i] {
			t.Fatalf("cell %q moved off its pin:\n got %+v\nwant %+v", ca.Name, ca, want[i])
		}
	}
}
