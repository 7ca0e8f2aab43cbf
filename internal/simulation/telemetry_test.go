package simulation

import "testing"

// TestTelemetryQuick smoke-runs E24 at reduced scale and asserts the
// deterministic half: both overhead arms complete, and the injected
// storage incident is fully diagnosable from scraped /metrics and
// /trace text — failed gauge up, fsyncs stalled, write 5xxs rising,
// reads still serving, the trace ring naming the failing endpoint, and
// a clean recovery after reopen. (The <3% overhead claim is
// timing-dependent and lives in BenchmarkE24TelemetryOverhead.)
func TestTelemetryQuick(t *testing.T) {
	res, err := runEntry[TelemetryResult]("e24", 24, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.On.Throughput == 0 || res.Off.Throughput == 0 {
		t.Fatalf("overhead arms empty: on=%.0f off=%.0f", res.On.Throughput, res.Off.Throughput)
	}

	i := res.Incident
	if i.HealthyVotes == 0 || i.FailedVotes == 0 || i.LookupsOK == 0 {
		t.Fatalf("incident traffic did not run: %+v", i)
	}
	if !i.StorageFailedSeen {
		t.Error("scrape missed reputation_storedb_failed = 1")
	}
	if !i.FsyncsStalled {
		t.Error("scrape missed the stalled wal fsync counter")
	}
	if i.VoteErrors5xx <= 0 {
		t.Errorf("vote 5xx delta = %.0f, want > 0", i.VoteErrors5xx)
	}
	if i.LookupsServed2xx <= 0 {
		t.Errorf("lookup 2xx delta = %.0f, want > 0 (reads must keep serving)", i.LookupsServed2xx)
	}
	if !i.TraceShowsVote503 {
		t.Error("/trace does not name /api/vote with status=503")
	}
	if !i.Diagnosed() {
		t.Errorf("incident not diagnosable from scrapes alone: %+v", i)
	}
	if !i.Recovered {
		t.Error("failed gauge did not clear after reopen + acked write")
	}
	pinned := TelemetryIncident{
		HealthyVotes: 40, FailedVotes: 80, LookupsOK: 120,
		StorageFailedSeen: true, FsyncsStalled: true,
		VoteErrors5xx: 80, LookupsServed2xx: 40,
		TraceShowsVote503: true, Recovered: true,
	}
	if i != pinned {
		t.Errorf("incident moved off its pin:\n got %+v\nwant %+v", i, pinned)
	}
}
