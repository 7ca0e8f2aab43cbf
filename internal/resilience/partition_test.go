package resilience

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"softreputation/internal/vclock"
)

// countingServer is an httptest server that counts requests reaching it.
func countingServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, c *http.Client, url string) error {
	t.Helper()
	resp, err := c.Get(url)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

func TestPartitionNetCutAndHeal(t *testing.T) {
	var aHits, bHits atomic.Int64
	a := countingServer(t, &aHits)
	b := countingServer(t, &bHits)

	pnet := NewPartitionNet(nil)
	pnet.AddNode("a", a.URL)
	pnet.AddNode("b", b.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}
	fromA := &http.Client{Transport: pnet.Transport("a", nil)}

	if err := get(t, client, a.URL); err != nil {
		t.Fatalf("open link: %v", err)
	}

	pnet.Cut("c", "a")
	err := get(t, client, a.URL)
	if err == nil {
		t.Fatal("request crossed a cut link")
	}
	// The failure reads as a dial timeout, like FaultTransport's.
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("cut error = %v, want a timeout net.Error", err)
	}
	if aHits.Load() != 1 {
		t.Fatalf("a saw %d requests, want 1", aHits.Load())
	}
	// Other links are untouched.
	if err := get(t, client, b.URL); err != nil {
		t.Fatalf("uncut link: %v", err)
	}

	// HealAll reopens every link, the cut's own and any other.
	pnet.Cut("a", "b")
	if err := get(t, fromA, b.URL); err == nil {
		t.Fatal("a->b crossed a cut link")
	}
	pnet.HealAll()
	if err := get(t, client, a.URL); err != nil {
		t.Fatalf("healed link: %v", err)
	}
	if err := get(t, fromA, b.URL); err != nil {
		t.Fatalf("healed link: %v", err)
	}
	if aHits.Load() != 2 || bHits.Load() != 2 {
		t.Fatalf("a saw %d requests and b %d, want 2 each", aHits.Load(), bHits.Load())
	}
}

func TestPartitionNetLoseReplies(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	pnet := NewPartitionNet(nil)
	pnet.AddNode("s", srv.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}

	pnet.LoseReplies("c", "s")
	if err := get(t, client, srv.URL); err == nil {
		t.Fatal("reply crossed a lose-replies link")
	}
	// The request DID arrive: its side effects happened.
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (request delivered, reply lost)", hits.Load())
	}
	// Only the one direction loses replies.
	if err := get(t, &http.Client{Transport: pnet.Transport("d", nil)}, srv.URL); err != nil {
		t.Fatalf("another sender's reply was lost: %v", err)
	}
}

func TestPartitionNetTimedHealOnVirtualClock(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	clk := vclock.NewVirtual(vclock.Epoch)
	pnet := NewPartitionNet(clk)
	pnet.AddNode("s", srv.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}

	pnet.CutFor("c", "s", 10*time.Minute)
	if err := get(t, client, srv.URL); err == nil {
		t.Fatal("request crossed inside the cut window")
	}
	clk.Advance(9 * time.Minute)
	if err := get(t, client, srv.URL); err == nil {
		t.Fatal("request crossed before the heal deadline")
	}
	clk.Advance(2 * time.Minute)
	if err := get(t, client, srv.URL); err != nil {
		t.Fatalf("timed cut did not heal: %v", err)
	}
}

func TestPartitionNetUnknownDestinationPassesThrough(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	pnet := NewPartitionNet(nil)
	pnet.AddNode("other", "http://other.invalid")
	pnet.Cut("c", "other")
	client := &http.Client{Transport: pnet.Transport("c", nil)}
	if err := get(t, client, srv.URL); err != nil {
		t.Fatalf("unregistered destination must pass through: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatal("request did not reach the unregistered server")
	}
}

// TestPartitionNetLongestBaseWins registers one base URL that prefixes
// another: a request resolves to the node with the longer base.
func TestPartitionNetLongestBaseWins(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	pnet := NewPartitionNet(nil)
	pnet.AddNode("short", srv.URL)
	pnet.AddNode("long", srv.URL+"/api")
	pnet.Cut("c", "long")
	client := &http.Client{Transport: pnet.Transport("c", nil)}
	if err := get(t, client, srv.URL+"/api/lookup"); err == nil {
		t.Fatal("a request under the longer base crossed its cut")
	}
	if err := get(t, client, srv.URL+"/healthz"); err != nil {
		t.Fatalf("a request under the shorter base only: %v", err)
	}
}
