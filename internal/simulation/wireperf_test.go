package simulation

import "testing"

// TestWirePerfQuick smoke-runs E23 at reduced scale and asserts the
// structural invariants: every arm completes without failures, and the
// binary arms move fewer bytes per lookup than XML — with batch at
// least 3x fewer, the byte half of the headline claim (bytes are
// deterministic for a fixed workload; the >=2x throughput claim is
// timing-dependent and lives in BenchmarkE23WireProtocol).
func TestWirePerfQuick(t *testing.T) {
	res, err := runEntry[WirePerfResult]("e23", 23, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.XML.BytesPerLookup == 0 || res.Binary.BytesPerLookup == 0 {
		t.Fatalf("byte accounting empty: %+v / %+v", res.XML, res.Binary)
	}
	if res.ByteFactorBinary <= 1 {
		t.Fatalf("binary framing not smaller than XML: %.2fx (%0.f vs %0.f B/lookup)",
			res.ByteFactorBinary, res.Binary.BytesPerLookup, res.XML.BytesPerLookup)
	}
	if res.ByteFactorBatch < 3 {
		t.Fatalf("binary+batch byte factor = %.2fx, want >= 3x (%0.f vs %0.f B/lookup)",
			res.ByteFactorBatch, res.BinaryBatch.BytesPerLookup, res.XML.BytesPerLookup)
	}
	if res.SpeedupBatch < 1 {
		t.Fatalf("binary+batch slower than XML: %.2fx", res.SpeedupBatch)
	}
}
