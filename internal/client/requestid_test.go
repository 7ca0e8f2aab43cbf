package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/wire"
)

// idTier is a primary+replica pair whose handlers record the inbound
// X-Reputation-Request-Id of every API request, so tests can check
// that one logical client call presents one ID to every server it
// touches — across redirects, retries, and failover sweeps.
type idTier struct {
	servers []*server.Server
	urls    []string

	mu   sync.Mutex
	down map[int]bool
	ids  map[int][]string
}

func newIDTier(t *testing.T) *idTier {
	t.Helper()
	tier := &idTier{down: make(map[int]bool), ids: make(map[int][]string)}

	swaps := make([]*swapHandler, 2)
	for i := 0; i < 2; i++ {
		idx := i
		sw := &swapHandler{}
		swaps[i] = sw
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/api/") {
				tier.record(idx, r.Header.Get(wire.HeaderRequestID))
			}
			if tier.isDown(idx) {
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
		}))
		t.Cleanup(ts.Close)
		tier.urls = append(tier.urls, ts.URL)
	}

	for i := 0; i < 2; i++ {
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

func (tier *idTier) record(i int, id string) {
	tier.mu.Lock()
	defer tier.mu.Unlock()
	tier.ids[i] = append(tier.ids[i], id)
}

func (tier *idTier) isDown(i int) bool {
	tier.mu.Lock()
	defer tier.mu.Unlock()
	return tier.down[i]
}

func (tier *idTier) setDown(i int, v bool) {
	tier.mu.Lock()
	defer tier.mu.Unlock()
	tier.down[i] = v
}

func (tier *idTier) seen(i int) []string {
	tier.mu.Lock()
	defer tier.mu.Unlock()
	return append([]string(nil), tier.ids[i]...)
}

// requireOneID asserts every recorded ID across the given endpoints is
// the same non-empty value, and returns it.
func requireOneID(t *testing.T, tier *idTier, endpoints ...int) string {
	t.Helper()
	var id string
	for _, i := range endpoints {
		ids := tier.seen(i)
		if len(ids) == 0 {
			t.Fatalf("endpoint %d saw no requests", i)
		}
		for _, got := range ids {
			if got == "" {
				t.Fatalf("endpoint %d saw a request without an ID", i)
			}
			if id == "" {
				id = got
			}
			if got != id {
				t.Fatalf("endpoint %d saw id %q, want %q — one logical call must carry one ID", i, got, id)
			}
		}
	}
	return id
}

// TestRequestIDPropagatesAcrossRedirect checks that a write landing on
// a replica and following the 421 redirect presents the same request
// ID to both the replica and the primary.
func TestRequestIDPropagatesAcrossRedirect(t *testing.T) {
	tier := newIDTier(t)
	// Endpoint order starts at the replica so the write redirects.
	api := NewFailoverAPI([]string{tier.urls[1], tier.urls[0]}, nil)

	_, err := api.Login(context.Background(), "nobody", "nothing")
	var werr *wire.ErrorResponse
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadCreds {
		t.Fatalf("err = %v, want bad-credentials from primary", err)
	}
	if api.Failover().Stats().RedirectsFollowed == 0 {
		t.Fatal("no redirect followed")
	}
	requireOneID(t, tier, 0, 1)
}

// TestRequestIDPropagatesAcrossFailover checks that a read shed by a
// draining endpoint carries the same ID to the endpoint that finally
// answers — the sweep is one logical call.
func TestRequestIDPropagatesAcrossFailover(t *testing.T) {
	tier := newIDTier(t)
	api := NewFailoverAPI(tier.urls, nil)

	// Draining: endpoint 0 answers 503, the client fails over to 1.
	tier.servers[0].SetDraining(true)
	if _, err := api.Stats(context.Background()); err != nil {
		t.Fatalf("read with draining primary: %v", err)
	}
	requireOneID(t, tier, 0, 1)
}

// TestRequestIDCallerSupplied checks that an ID set via WithRequestID
// reaches the server verbatim and distinct logical calls get distinct
// minted IDs.
func TestRequestIDCallerSupplied(t *testing.T) {
	tier := newIDTier(t)
	api := NewAPI(tier.urls[0], nil)

	ctx := WithRequestID(context.Background(), "caller-chose-this")
	if _, err := api.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got := requireOneID(t, tier, 0); got != "caller-chose-this" {
		t.Fatalf("server saw id %q, want the caller's", got)
	}

	// Two fresh logical calls mint two different IDs.
	if _, err := api.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := api.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids := tier.seen(0)
	if len(ids) != 3 || ids[1] == ids[2] {
		t.Fatalf("minted ids should differ per call: %v", ids)
	}
}
