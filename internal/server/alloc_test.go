package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"softreputation/internal/repo"
	"softreputation/internal/wire"
)

// TestLookupHitAllocBudget pins what one request costs the whole handler
// chain in heap allocations, for the three lookup shapes the benchmark
// drives, on a server built with the daemon's settings. Requests and
// recorders are built beforehand (as in bench/ledger.go's replay), so
// the count is the chain's own plus the recorder's buffer and header
// snapshot. A budget is the measured value + 2; raise one only with the
// reason in the commit.
func TestLookupHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	store := repo.OpenMemory()
	defer store.Close()
	srv, err := New(Config{
		Store:            store,
		EmailPepper:      "pepper",
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		AdmissionControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	entries := make([]BootstrapEntry, batch)
	infos := make([]wire.SoftwareInfo, batch)
	for i := range entries {
		entries[i] = BootstrapEntry{Meta: testMeta(byte(i)), Score: 7, Votes: 12}
		infos[i] = wireMeta(byte(i))
	}
	if err := srv.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	var xmlReq bytes.Buffer
	if err := wire.Encode(&xmlReq, &wire.LookupRequest{Software: infos[0]}); err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	cases := []struct {
		name        string
		path        string
		contentType string
		body        []byte
		budget      float64
	}{
		// Measured 15. Parent commit (five nested middlewares, three
		// writer wrappers, net/http's time-out handler): 35.
		{"binary hit", wire.PathLookup, wire.BinaryContentType,
			wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[0]}), 17},
		// Measured 16. Parent commit: 36.
		{"xml hit", wire.PathLookup, wire.ContentType, xmlReq.Bytes(), 18},
		// Measured 527, of which 8 per entry are the batch decode and the
		// per-entry cache keys. Parent commit: 556.
		{"batch of 64", wire.PathLookupBatch, wire.BinaryContentType,
			wire.EncodeBinaryLookupBatch(infos, nil), 529},
	}
	for _, tc := range cases {
		const runs = 200
		// AllocsPerRun calls the function runs+1 times.
		reqs := make([]*http.Request, runs+2)
		recs := make([]*httptest.ResponseRecorder, len(reqs))
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
			reqs[i].Header.Set("Content-Type", tc.contentType)
			recs[i] = httptest.NewRecorder()
		}
		// The first request fills the cache; the measured ones hit it.
		handler.ServeHTTP(recs[0], reqs[0])
		if recs[0].Code != http.StatusOK {
			t.Fatalf("%s: warm-up status %d: %s", tc.name, recs[0].Code, recs[0].Body)
		}
		next := 1
		got := testing.AllocsPerRun(runs, func() {
			handler.ServeHTTP(recs[next], reqs[next])
			next++
		})
		for i, rec := range recs[:next] {
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Fatalf("%s: request %d answered %d with %d bytes", tc.name, i, rec.Code, rec.Body.Len())
			}
		}
		t.Logf("%s: %.1f allocs/request (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/request, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
