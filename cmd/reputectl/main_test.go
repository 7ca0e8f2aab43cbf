package main

import (
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"softreputation/internal/admission"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// TestHealthPrintsStateAndCounts runs health against a node whose store
// failed once and was reopened, with admission on, and holds it to one
// line per state field and per count. A count is matched by its value
// where the setup fixes it, so a renamed metric family fails here
// instead of printing a zero.
func TestHealthPrintsStateAndCounts(t *testing.T) {
	st, err := repo.Open(storedb.Options{Dir: t.TempDir(), SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := server.New(server.Config{
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

	db := st.DB()
	put := func(k string) error {
		return db.Update(func(tx *storedb.Tx) error { return tx.MustBucket("t").Put([]byte(k), []byte("v")) })
	}
	plan := storedb.NewFaultPlan(&storedb.FaultRule{
		Op: storedb.FaultSync, Label: "wal", Count: 1, Err: storedb.ErrInjectedIO,
	})
	plan.Install()
	err = put("failed")
	storedb.UninstallFaults()
	if err == nil || plan.Fired() == 0 {
		t.Fatalf("fault did not trip: err=%v fired=%d", err, plan.Fired())
	}
	if err := db.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := put("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := put("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One request through the admission gate, so a class count moves.
	resp, err := ts.Client().Get(ts.URL + wire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var out strings.Builder
	if err := cmdHealth(&out, ts.URL); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`role:        primary`,
		`protocols:   binary,xml`,
		`epoch:       \d+`,
		`seq:         \d+`,
		`lag:         0`,
		`draining:    false`,
		`brownout:    full`,
		`storage:     ok`,
		`snap-seq:    \d+`,
		`digest:      [0-9a-f]{16}`,
		`replicas:    none tracked`,
		`req-rate:    [0-9.]+/s \(over 1s\)`,
		`err-rate:    .+`,
		`inflight:    \d+`,
		`limit:       [1-9]\d*`,
		`classes:`,
		`  critical     admitted \d+ +shed \d+ +throttled \d+`,
		`  interactive  admitted \d+ +shed \d+ +throttled \d+`,
		`  write        admitted \d+ +shed \d+ +throttled \d+`,
		`  background   admitted [1-9]\d* +shed \d+ +throttled \d+`,
		`reopens:     1`,
		`wal:         [1-9]\d* commits in [1-9]\d* group writes, [1-9]\d* fsyncs`,
		`depth:       [0-9.]+ commits per WAL write`,
		`fsyncs:      [0-9.]+ per commit`,
		`scrub-runs:  1`,
		`blocks:      [1-9]\d* verified`,
		`corruptions: 0 detected since open`,
		`last-scrub:  \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ`,
		`compactions: 1`,
		`compact-lag: 1 commits behind the WAL tail`,
	} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).MatchString(text) {
			t.Errorf("no line %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "missing:") {
		t.Errorf("health names metrics it did not find:\n%s", text)
	}
	if strings.Contains(text, wire.StorageFailed) {
		t.Errorf("a reopened store reads as failed:\n%s", text)
	}
}
