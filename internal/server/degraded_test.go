package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"softreputation/internal/admission"
	"softreputation/internal/repo"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// Degraded-mode tests: when the store trips its sticky storage failure,
// the server must keep serving reads, shed writes with 503 unavailable
// (clients fail over), surface the state on /healthz, and go back to
// normal after a reopen.

func getHealthz(t *testing.T, base string) *wire.HealthzResponse {
	t.Helper()
	resp, err := http.Get(base + wire.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h wire.HealthzResponse
	if err := wire.Decode(resp.Body, &h); err != nil {
		t.Fatal(err)
	}
	return &h
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + wire.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestStorageFailureShedsWritesKeepsReads(t *testing.T) {
	st, err := repo.Open(storedb.Options{Dir: t.TempDir(), SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{
		Store:            st,
		EmailPepper:      "p",
		AdmissionControl: true,
		Admission:        admission.Config{MaxLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Healthy baseline: /healthz reports storage ok and writes pass the
	// shed gate (the vote fails later, on its missing session).
	h := getHealthz(t, ts.URL)
	if h.Storage == nil || h.Storage.State != wire.StorageOK {
		t.Fatalf("healthy storage section = %+v", h.Storage)
	}
	resp, err := http.Post(ts.URL+wire.PathVote, wire.ContentType,
		strings.NewReader(`<vote><session>nope</session></vote>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		t.Fatalf("healthy write shed: status = %d", resp.StatusCode)
	}

	// Trip the failure: one injected WAL fsync error turns the store
	// sticky read-only.
	plan := storedb.NewFaultPlan(&storedb.FaultRule{
		Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO,
	})
	plan.Install()
	err = st.DB().Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("t").Put([]byte("k"), []byte("v"))
	})
	storedb.UninstallFaults()
	if err == nil || plan.Fired() == 0 {
		t.Fatalf("fault did not trip: err=%v fired=%d", err, plan.Fired())
	}

	// Writes now shed 503 unavailable at the gate.
	resp, err = http.Post(ts.URL+wire.PathVote, wire.ContentType,
		strings.NewReader(`<vote><session>nope</session></vote>`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded write status = %d, want 503; body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), wire.CodeUnavailable) {
		t.Fatalf("degraded write body = %q, want code %q", body, wire.CodeUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded write shed missing Retry-After")
	}

	// Reads stay up: stats and lookups keep serving from the last
	// durable tree.
	resp, err = http.Get(ts.URL + wire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read status = %d, want 200", resp.StatusCode)
	}
	lookup := `<lookup><software><id>` + strings.Repeat("ab", 20) + `</id><file-name>x.exe</file-name></software></lookup>`
	resp, err = http.Post(ts.URL+wire.PathLookup, wire.ContentType, strings.NewReader(lookup))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded lookup status = %d, want 200", resp.StatusCode)
	}

	// The health endpoints bypass the gate and report the failure, and
	// the brownout ladder stepped to cache-only.
	h = getHealthz(t, ts.URL)
	if h.Storage == nil || h.Storage.State != wire.StorageFailed {
		t.Fatalf("degraded storage section = %+v", h.Storage)
	}
	if h.Storage.LastFailure == "" {
		t.Fatal("degraded storage section missing last failure")
	}
	if lvl := srv.BrownoutLevel(); lvl < admission.LevelCacheOnly {
		t.Fatalf("brownout level = %v, want >= cache-only", lvl)
	}

	// Reopen is the way back: storage state clears and writes pass the
	// gate again.
	if err := st.DB().Reopen(); err != nil {
		t.Fatal(err)
	}
	srv.Admission().SetLevel(admission.LevelFull)
	h = getHealthz(t, ts.URL)
	if h.Storage == nil || h.Storage.State != wire.StorageOK {
		t.Fatalf("post-reopen storage section = %+v", h.Storage)
	}
	if n, _ := telemetry.Sum(getMetrics(t, ts.URL), "reputation_storedb_reopens_total", nil); n != 1 {
		t.Fatalf("post-reopen reopen count = %v, want 1", n)
	}
	resp, err = http.Post(ts.URL+wire.PathVote, wire.ContentType,
		strings.NewReader(`<vote><session>nope</session></vote>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		t.Fatalf("post-reopen write still shed: status = %d", resp.StatusCode)
	}
}

// TestReplStatusReportsStorageState covers the replication status
// surface failover clients read when choosing a pull source.
func TestReplStatusReportsStorageState(t *testing.T) {
	st, err := repo.Open(storedb.Options{Dir: t.TempDir(), SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, EmailPepper: "p"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() string {
		resp, err := http.Get(ts.URL + wire.PathReplStatus)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rs wire.ReplStatusResponse
		if err := wire.Decode(resp.Body, &rs); err != nil {
			t.Fatal(err)
		}
		return rs.Storage
	}
	if s := get(); s != wire.StorageOK {
		t.Fatalf("healthy replstatus storage = %q", s)
	}

	plan := storedb.NewFaultPlan(&storedb.FaultRule{
		Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO,
	})
	plan.Install()
	_ = st.DB().Update(func(tx *storedb.Tx) error {
		return tx.MustBucket("t").Put([]byte("k"), []byte("v"))
	})
	storedb.UninstallFaults()

	if s := get(); s != wire.StorageFailed {
		t.Fatalf("degraded replstatus storage = %q", s)
	}
	if err := st.DB().Reopen(); err != nil {
		t.Fatal(err)
	}
	if s := get(); s != wire.StorageOK {
		t.Fatalf("post-reopen replstatus storage = %q", s)
	}
}
