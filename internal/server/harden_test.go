package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"softreputation/internal/repo"
	"softreputation/internal/wire"
)

func hardenedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Store = repo.OpenMemory()
	t.Cleanup(func() { cfg.Store.Close() })
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDrainingAnswers503WithRetryAfter(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.SetDraining(true)
	resp, err := http.Get(ts.URL + wire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var werr wire.ErrorResponse
	if err := wire.Decode(resp.Body, &werr); err != nil {
		t.Fatalf("shed body is not a wire error: %v", err)
	}
	if werr.Code != wire.CodeUnavailable {
		t.Fatalf("code = %q, want %q", werr.Code, wire.CodeUnavailable)
	}
	if srv.ShedCount() != 1 {
		t.Fatalf("shed count = %d", srv.ShedCount())
	}

	// Un-draining restores service.
	srv.SetDraining(false)
	resp2, err := http.Get(ts.URL + wire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d", resp2.StatusCode)
	}
}

func TestMaxInflightSheds(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", MaxInflight: 1, ShedRetryAfter: 2 * time.Second})

	// Park one request inside the handler chain, then send another.
	release := make(chan struct{})
	slow := srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(slow)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait for the first request to occupy the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for srv.InflightRequests() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 shed", resp.StatusCode)
	}
	// Retry-After carries bounded jitter: uniform in [base, 2*base].
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 2 || secs > 4 {
		t.Fatalf("Retry-After = %q, want 2..4", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), wire.CodeOverloaded) {
		t.Fatalf("body = %q", body)
	}
	close(release)
	wg.Wait()
}

func TestRetryAfterJitterBounded(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		v := retryAfterSeconds(2 * time.Second)
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 2 || secs > 4 {
			t.Fatalf("retryAfterSeconds = %q, want 2..4", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("no jitter observed: always %v", seen)
	}
}

func TestRequestTimeoutAnswers503(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 20 * time.Millisecond})
	slow := srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	ts := httptest.NewServer(slow)
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 timeout", resp.StatusCode)
	}
	if !strings.Contains(string(body), wire.CodeUnavailable) {
		t.Fatalf("body = %q", body)
	}
	// The time-out is a refusal like the others: explicit content type,
	// jittered Retry-After.
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentType)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 || secs > 2 {
		t.Fatalf("Retry-After = %q, want 1..2", resp.Header.Get("Retry-After"))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
