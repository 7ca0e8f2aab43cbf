package simulation

import (
	"testing"
)

// TestE25ScrubRepairQuick runs the reduced-scale E25: every seeded bit
// flip across the target x phase grid must be detected by the scrub,
// repaired from the replica with zero acked-write loss, and converge
// byte-identically; the perf run must keep the compaction stall off the
// commit path.
func TestE25ScrubRepairQuick(t *testing.T) {
	cfg := QuickScrubRepairConfig(1)
	res, err := RunScrubRepair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.String())

	if n := res.Undetected(); n != 0 {
		t.Errorf("undetected corruption in %d cells, want 0", n)
	}
	if n := res.TotalLostAcked(); n != 0 {
		t.Errorf("lost %d acked writes through repair, want 0", n)
	}
	for _, c := range res.Cells {
		if !c.Detected {
			continue
		}
		if !c.ReadsServed {
			t.Errorf("cell %s/%s: reads stopped serving on the corrupt store", c.Target, c.Phase)
		}
		if !c.WritesShed {
			t.Errorf("cell %s/%s: writes not refused with ErrStorageCorrupt", c.Target, c.Phase)
		}
		if !c.Repaired {
			t.Errorf("cell %s/%s: repair failed: %s", c.Target, c.Phase, c.RepairErr)
			continue
		}
		if !c.Converged {
			t.Errorf("cell %s/%s: primary and replica did not converge byte-identically", c.Target, c.Phase)
		}
		if !c.Recovered {
			t.Errorf("cell %s/%s: post-repair write failed", c.Target, c.Phase)
		}
		wantUnit := c.Target == "snapshot" &&
			(c.Unit == "snapshot-header" || c.Unit == "snapshot-block") ||
			c.Target == "wal" && c.Unit == "wal-frame"
		if !wantUnit {
			t.Errorf("cell %s/%s: scrub named unit %q", c.Target, c.Phase, c.Unit)
		}
	}

	if res.Perf.P99 >= cfg.CompactDelay {
		t.Errorf("commit p99 %v absorbs the %v compaction stall; want it off the commit path", res.Perf.P99, cfg.CompactDelay)
	}
	if res.Perf.Compactions == 0 {
		t.Error("perf run never compacted")
	}
}
