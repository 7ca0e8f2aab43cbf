package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// fakeEndpoint serves a canned /healthz document and counts probes.
func fakeEndpoint(t *testing.T, h *wire.HealthzResponse, probes *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.PathHealthz {
			http.NotFound(w, r)
			return
		}
		probes.Add(1)
		w.Header().Set("Content-Type", wire.ContentType)
		_ = wire.Encode(w, h)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestProbeCacheTTL(t *testing.T) {
	var probes atomic.Int64
	ts := fakeEndpoint(t, &wire.HealthzResponse{Role: wire.RolePrimary}, &probes)

	clk := vclock.NewVirtual(vclock.Epoch)
	api := NewFailoverAPI([]string{ts.URL}, nil)
	fo := api.Failover()
	fo.Clock = clk

	for i := 0; i < 4; i++ {
		if got := fo.Probe(context.Background()); got != ts.URL {
			t.Fatalf("probe %d returned %q", i, got)
		}
	}
	if n := probes.Load(); n != 1 {
		t.Fatalf("%d network probes inside TTL, want 1", n)
	}
	if hits := fo.Stats().ProbeCacheHits; hits != 3 {
		t.Fatalf("cache hits = %d, want 3", hits)
	}

	clk.Advance(probeTTL + time.Millisecond)
	fo.Probe(context.Background())
	if n := probes.Load(); n != 2 {
		t.Fatalf("%d network probes after TTL expiry, want 2", n)
	}
}

func TestProbePicksHighestEpochAndSkipsFenced(t *testing.T) {
	var p1, p2, p3 atomic.Int64
	old := fakeEndpoint(t, &wire.HealthzResponse{Role: wire.RolePrimary, Epoch: 1}, &p1)
	newer := fakeEndpoint(t, &wire.HealthzResponse{Role: wire.RolePrimary, Epoch: 2}, &p2)
	fenced := fakeEndpoint(t, &wire.HealthzResponse{Role: wire.RolePrimary, Epoch: 3, Fenced: true}, &p3)

	// The stale primary sorts first in the endpoint list; epoch must
	// override ordering, and the fenced server must never be picked even
	// with the highest epoch.
	api := NewFailoverAPI([]string{old.URL, fenced.URL, newer.URL}, nil)
	fo := api.Failover()
	if got := fo.Probe(context.Background()); got != newer.URL {
		t.Fatalf("probe picked %q, want the highest-epoch unfenced primary %q", got, newer.URL)
	}
	// The sweep taught the client the tier's highest epoch, fenced
	// servers included.
	if e := fo.Epoch(); e != 3 {
		t.Fatalf("observed epoch = %d, want 3", e)
	}
}
