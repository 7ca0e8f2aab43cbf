package simulation

import "testing"

// TestFaultGridQuick runs the reduced E21 grid and asserts the
// acceptance criteria the experiment exists to defend: zero acked-write
// loss, zero resurrection, recovery in every cell, and fsync
// amortization under group commit.
func TestFaultGridQuick(t *testing.T) {
	res, err := RunFaultGrid(QuickFaultGridConfig(21))
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

	if res.Perf.FsyncsPerW >= 1 {
		t.Errorf("fsyncs/write = %.3f, want < 1", res.Perf.FsyncsPerW)
	}
	if res.Perf.GroupDepth <= 1 {
		t.Errorf("group depth = %.1f, want > 1", res.Perf.GroupDepth)
	}
}
