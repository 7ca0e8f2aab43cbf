package simulation

import "testing"

// TestFaultGridQuick runs the reduced E21 grid and asserts the
// acceptance criteria the experiment exists to defend: zero acked-write
// loss, zero resurrection, recovery in every cell, and fsync
// amortization under group commit.
func TestFaultGridQuick(t *testing.T) {
	res, err := runEntry[FaultGridResult]("e21", 21, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)

	if got := res.TotalLostAcked(); got != 0 {
		t.Errorf("acked-write loss = %d, want 0", got)
	}
	if got := res.TotalResurrected(); got != 0 {
		t.Errorf("resurrected writes = %d, want 0", got)
	}
	for _, c := range res.Cells {
		if !c.Recovered {
			t.Errorf("cell %s/after=%d did not recover", c.Kind, c.FireAfter)
		}
		if c.Unexpected != 0 {
			t.Errorf("cell %s/after=%d: %d unexpected writer errors", c.Kind, c.FireAfter, c.Unexpected)
		}
		if c.Fired == 0 {
			t.Errorf("cell %s/after=%d: fault never fired", c.Kind, c.FireAfter)
		}
	}

	// The pinned grid. A WAL fault at the first write or sync refuses
	// every write, every run. At a later offset, how many commits group
	// into the WAL writes before the fault is the scheduler's choice
	// (10 acked in most runs, now and then 7, 11 or 12), and the
	// snapshot faults race the writers, so there acked and refused are
	// pinned only as their sum.
	walFault := map[string]bool{"eio-wal-sync": true, "enospc-wal-write": true, "torn-wal-write": true, "kill-torn-tail": true}
	for _, c := range res.Cells {
		want := FaultGridCell{Kind: c.Kind, FireAfter: c.FireAfter, Acked: c.Acked, Refused: c.Refused, Fired: 1, Recovered: true}
		if walFault[c.Kind] && c.FireAfter == 0 {
			want.Acked, want.Refused = 0, 60
		}
		if c != want || c.Acked+c.Refused != 60 {
			t.Errorf("cell %s/after=%d moved off its pin:\n got %+v\nwant %+v, acked+refused 60", c.Kind, c.FireAfter, c, want)
		}
	}

	if res.Perf.FsyncsPerW >= 1 {
		t.Errorf("fsyncs/write = %.3f, want < 1", res.Perf.FsyncsPerW)
	}
	if res.Perf.GroupDepth <= 1 {
		t.Errorf("group depth = %.1f, want > 1", res.Perf.GroupDepth)
	}
}
