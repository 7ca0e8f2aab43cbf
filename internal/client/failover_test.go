package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/wire"
)

// swapHandler lets the httptest servers start before the role-aware
// handlers exist: the replicas' PrimaryURL must name the primary's
// (port-assigned) URL, which is only known once all listeners are up.
type swapHandler struct{ v atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(http.Handler).ServeHTTP(w, r)
}

// replTier is a three-server fixture: one primary and two replicas
// wired at the server-role level, each over its own empty store (a
// server's role is its store's). Real WAL shipping is covered by
// internal/replication.
type replTier struct {
	servers []*server.Server
	urls    []string

	mu       sync.Mutex
	downMask int // bit i set = endpoint i drops connections
	after    map[int]func()
}

func newReplTier(t *testing.T) *replTier {
	t.Helper()
	tier := &replTier{after: make(map[int]func())}

	swaps := make([]*swapHandler, 3)
	for i := 0; i < 3; i++ {
		idx := i
		sw := &swapHandler{}
		swaps[i] = sw
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tier.isDown(idx) {
				// Simulate a dead host: drop the connection mid-flight.
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
						return
					}
				}
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			sw.ServeHTTP(w, r)
			if fn := tier.afterHook(idx); fn != nil {
				fn()
			}
		}))
		t.Cleanup(ts.Close)
		tier.urls = append(tier.urls, ts.URL)
	}

	for i := 0; i < 3; i++ {
		store := repo.OpenMemory()
		t.Cleanup(func() { store.Close() })
		cfg := server.Config{Store: store}
		if i > 0 {
			cfg.Replica = true
			cfg.PrimaryURL = tier.urls[0]
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tier.servers = append(tier.servers, srv)
		swaps[i].v.Store(srv.Handler())
	}
	return tier
}

func (rt *replTier) isDown(i int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.downMask&(1<<i) != 0
}

func (rt *replTier) setDown(i int, down bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if down {
		rt.downMask |= 1 << i
	} else {
		rt.downMask &^= 1 << i
	}
}

func (rt *replTier) afterHook(i int) func() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.after[i]
}

func (rt *replTier) setAfterHook(i int, fn func()) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.after[i] = fn
}

func TestFailoverReadsSurvivePrimaryDeath(t *testing.T) {
	tier := newReplTier(t)
	api := NewFailoverAPI(tier.urls, nil)
	ctx := context.Background()

	if _, err := api.Stats(ctx); err != nil {
		t.Fatalf("healthy read: %v", err)
	}

	// Kill the primary: reads must keep working via the replicas.
	tier.setDown(0, true)
	if _, err := api.Stats(ctx); err != nil {
		t.Fatalf("read with dead primary: %v", err)
	}
	if api.Failover().Stats().ReadFailovers == 0 {
		t.Fatal("no read failover recorded")
	}
	// Subsequent reads go straight to the endpoint that last answered.
	before := api.Failover().Stats().ReadFailovers
	if _, err := api.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := api.Failover().Stats().ReadFailovers; got != before {
		t.Fatalf("read failovers %d -> %d; preference not sticky", before, got)
	}
}

func TestFailoverWriteFollowsRedirect(t *testing.T) {
	tier := newReplTier(t)
	// Endpoint order starts at a replica: the write must be redirected
	// to the primary. Logging in with bad credentials distinguishes the
	// two answers — a replica says redirect, the primary says
	// bad-credentials (authoritative, so the sweep stops there).
	api := NewFailoverAPI([]string{tier.urls[1], tier.urls[0], tier.urls[2]}, nil)

	_, err := api.Login(context.Background(), "nobody", "nothing")
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadCreds {
		t.Fatalf("err = %v, want bad-credentials from primary", err)
	}
	st := api.Failover().Stats()
	if st.RedirectsFollowed == 0 {
		t.Fatalf("no redirect followed: %+v", st)
	}
	if api.Failover().Primary() != tier.urls[0] {
		t.Fatalf("believed primary = %s, want %s", api.Failover().Primary(), tier.urls[0])
	}
}

func TestFailoverWriteFindsPromotedReplica(t *testing.T) {
	tier := newReplTier(t)
	api := NewFailoverAPI(tier.urls, nil)

	// Primary dies; replica 1 was already promoted. The write sweep
	// finds the new primary among the candidates.
	tier.setDown(0, true)
	if err := tier.servers[1].Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	_, err := api.Login(context.Background(), "nobody", "nothing")
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadCreds {
		t.Fatalf("err = %v, want bad-credentials from promoted primary", err)
	}
	if api.Failover().Primary() != tier.urls[1] {
		t.Fatalf("believed primary = %s, want promoted %s", api.Failover().Primary(), tier.urls[1])
	}
}

func TestFailoverWriteProbesForLatePromotion(t *testing.T) {
	tier := newReplTier(t)
	api := NewFailoverAPI(tier.urls, nil)

	// Primary dies. Both replicas still redirect to it when the sweep
	// reaches them — promotion happens only *after* replica 1 has
	// answered its redirect. The sweep exhausts every endpoint, then the
	// /healthz probe finds the freshly promoted primary.
	tier.setDown(0, true)
	var once sync.Once
	tier.setAfterHook(1, func() {
		once.Do(func() { tier.servers[1].Promote() })
	})

	_, err := api.Login(context.Background(), "nobody", "nothing")
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadCreds {
		t.Fatalf("err = %v, want bad-credentials via health probe", err)
	}
	st := api.Failover().Stats()
	if st.HealthProbes == 0 {
		t.Fatalf("no health probe recorded: %+v", st)
	}
	if api.Failover().Primary() != tier.urls[1] {
		t.Fatalf("believed primary = %s, want promoted %s", api.Failover().Primary(), tier.urls[1])
	}
}

// TestProbeSkipsStorageFailedPrimary builds the health documents by
// hand: two servers both claim the primary role, but the first one's
// storage is in a sticky state (failed, corrupt) and would shed every
// write until reopened or repaired — the probe must keep sweeping to
// the healthy one.
func TestProbeSkipsStorageFailedPrimary(t *testing.T) {
	healthz := func(storage string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != wire.PathHealthz {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", wire.ContentType)
			_ = wire.Encode(w, &wire.HealthzResponse{
				Role:    wire.RolePrimary,
				Storage: &wire.StorageInfo{State: storage},
			})
		})
	}
	healthy := httptest.NewServer(healthz(wire.StorageOK))
	defer healthy.Close()
	for _, state := range []string{wire.StorageFailed, wire.StorageCorrupt} {
		sticky := httptest.NewServer(healthz(state))
		defer sticky.Close()
		api := NewFailoverAPI([]string{sticky.URL, healthy.URL}, nil)
		if got := api.Failover().Probe(context.Background()); got != healthy.URL {
			t.Fatalf("storage %s: probe = %s, want healthy primary %s", state, got, healthy.URL)
		}
	}
}

func TestProbeDiscoversPrimary(t *testing.T) {
	tier := newReplTier(t)
	// Start believing a replica is primary.
	api := NewFailoverAPI([]string{tier.urls[2], tier.urls[1], tier.urls[0]}, nil)
	if got := api.Failover().Probe(context.Background()); got != tier.urls[0] {
		t.Fatalf("probe = %s, want %s", got, tier.urls[0])
	}
	if api.Failover().Primary() != tier.urls[0] {
		t.Fatal("probe did not update believed primary")
	}
}
