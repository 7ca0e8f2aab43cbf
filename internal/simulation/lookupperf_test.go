package simulation

import "testing"

// TestLookupPerfQuick smoke-runs E19 at reduced scale and asserts its
// headline invariants: the fast lane commits zero write transactions
// and the report cache serves hits.
func TestLookupPerfQuick(t *testing.T) {
	res, err := RunLookupPerf(QuickLookupPerfConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.WriteTxns != 0 || res.Perf.SeqDelta != 0 {
		t.Fatalf("fast lane wrote: %+v", res.Perf)
	}
	if res.Perf.HitRatio == 0 {
		t.Fatalf("report cache never hit: %+v", res.Perf)
	}
}
