package resilience

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
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
	// The failure reads as a dial timeout.
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

// TestPartitionNetDegradedLinkCostsItsLatency blackholes a link after a
// latency: a faulted send costs exactly that latency on the virtual
// clock and fails, and the link passes again after HealAll.
func TestPartitionNetDegradedLinkCostsItsLatency(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	clk := vclock.NewVirtual(vclock.Epoch)
	pnet := NewPartitionNet(clk)
	pnet.AddNode("s", srv.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}

	// Before the outage: requests pass.
	if err := get(t, client, srv.URL); err != nil {
		t.Fatalf("healthy request failed: %v", err)
	}

	// Inside the outage: every request burns the connect cost and fails.
	pnet.Degrade("c", "s", Fault{Latency: time.Second})
	before := clk.Now()
	if err := get(t, client, srv.URL); err == nil {
		t.Fatal("partitioned request succeeded")
	}
	if got := clk.Now().Sub(before); got != time.Second {
		t.Fatalf("connect cost = %v, want 1s", got)
	}

	// After the outage: healthy again, and at no cost.
	pnet.HealAll()
	if err := get(t, client, srv.URL); err != nil {
		t.Fatalf("post-outage request failed: %v", err)
	}
	if got := clk.Now().Sub(before); got != time.Second {
		t.Fatalf("added latency = %v, want 1s", got)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2 (one of three dropped)", hits.Load())
	}
}

// every2nd503 sends four GETs over a link degraded to answer every
// second send 503 with Retry-After: 3, and returns their status codes.
func every2nd503(t *testing.T, pnet *PartitionNet, client *http.Client, url string) []int {
	t.Helper()
	pnet.Degrade("c", "s", Fault{EveryN: 2, RetryAfter: 3 * time.Second})
	codes := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Fatalf("Retry-After = %q", ra)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return codes
}

func TestPartitionNetEveryNth503(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	pnet := NewPartitionNet(vclock.NewVirtual(vclock.Epoch))
	pnet.AddNode("s", srv.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}

	// 1st request faulted, 2nd passes, 3rd faulted, 4th passes.
	if codes := every2nd503(t, pnet, client, srv.URL); !slices.Equal(codes, []int{503, 200, 503, 200}) {
		t.Fatalf("codes = %v, want [503 200 503 200]", codes)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", hits.Load())
	}
}

// TestPartitionNetEveryNRestartsAfterHeal stops a degraded link between
// two faulted sends: once healed and degraded again, its first send is
// faulted, not its second.
func TestPartitionNetEveryNRestartsAfterHeal(t *testing.T) {
	var hits atomic.Int64
	srv := countingServer(t, &hits)

	pnet := NewPartitionNet(nil)
	pnet.AddNode("s", srv.URL)
	client := &http.Client{Transport: pnet.Transport("c", nil)}

	pnet.Degrade("c", "s", Fault{EveryN: 2, RetryAfter: time.Second})
	for i := 0; i < 3; i++ { // 503, 200, 503: the next send would pass
		if err := get(t, client, srv.URL); err != nil {
			t.Fatal(err)
		}
	}
	pnet.HealAll()
	if codes := every2nd503(t, pnet, client, srv.URL); !slices.Equal(codes, []int{503, 200, 503, 200}) {
		t.Fatalf("codes after a heal = %v, want [503 200 503 200]", codes)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", hits.Load())
	}
}

// TestPartitionNetResolvesExactHost cuts a node at port 4000: a request
// to port 40001, whose URL the node's base prefixes, is not on the cut
// link.
func TestPartitionNetResolvesExactHost(t *testing.T) {
	var sent []string
	base := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		sent = append(sent, req.URL.Host)
		return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
	})
	pnet := NewPartitionNet(nil)
	pnet.AddNode("p", "http://127.0.0.1:4000")
	pnet.Cut("c", "p")
	client := &http.Client{Transport: pnet.Transport("c", base)}

	if err := get(t, client, "http://127.0.0.1:40001/api/lookup"); err != nil {
		t.Fatalf("a cut on p stopped :40001 traffic: %v", err)
	}
	if err := get(t, client, "http://127.0.0.1:4000/api/lookup"); err == nil {
		t.Fatal("a request to p crossed its cut")
	}
	if !slices.Equal(sent, []string{"127.0.0.1:40001"}) {
		t.Fatalf("sent to %v, want only 127.0.0.1:40001", sent)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// upgradingServer is an httptest server that answers an upgrade with a
// 101 and then echoes what arrives on the connection, counting the
// upgrades that reach it.
func upgradingServer(t *testing.T, upgrades *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upgrades.Add(1)
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: echo\r\n\r\n")
		_, _ = io.Copy(conn, brw)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// upgrade asks url for a connection through rt, returning the 101's body
// or the refusal's status.
func upgrade(t *testing.T, rt http.RoundTripper, url string) (io.ReadWriteCloser, int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "echo")
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
		return rwc, resp.StatusCode
	}
	resp.Body.Close()
	return nil, resp.StatusCode
}

// TestPartitionNetKeepsNoSessionAcrossAFault: a connection upgraded across
// an open link carries its writes as sends; once a cut, a degraded link or
// lost replies is installed on the link, in either direction, its next
// write fails without a send and closes it; and
// while a fault is live an upgrade is refused 404, at no latency and
// without a send, in either direction. Other links keep their sessions.
func TestPartitionNetKeepsNoSessionAcrossAFault(t *testing.T) {
	var upgrades atomic.Int64
	srv := upgradingServer(t, &upgrades)
	other := upgradingServer(t, &upgrades)
	clk := vclock.NewVirtual(vclock.Epoch)
	pnet := NewPartitionNet(clk)
	pnet.AddNode("s", srv.URL)
	pnet.AddNode("o", other.URL)
	rt := pnet.Transport("c", nil)

	for name, install := range map[string]func(){
		"cut":          func() { pnet.Cut("s", "c") },
		"degrade":      func() { pnet.Degrade("c", "s", Fault{Latency: time.Second, EveryN: 2}) },
		"lose replies": func() { pnet.LoseReplies("s", "c") },
	} {
		pnet.HealAll()
		session, status := upgrade(t, rt, srv.URL)
		elsewhere, _ := upgrade(t, rt, other.URL)
		if session == nil || elsewhere == nil {
			t.Fatalf("%s: upgrade across an open link answered %d", name, status)
		}
		sends := pnet.Sends("c", "s")
		buf := make([]byte, 4)
		if _, err := session.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(session, buf); err != nil || string(buf) != "ping" {
			t.Fatalf("%s: echo %q, %v", name, buf, err)
		}
		if got := pnet.Sends("c", "s") - sends; got != 1 {
			t.Fatalf("%s: a call on the session counted %d sends, want 1", name, got)
		}

		install()
		sends = pnet.Sends("c", "s")
		if n, err := session.Write([]byte("ping")); err == nil || n != 0 || pnet.Sends("c", "s") != sends {
			t.Errorf("%s: a write across the fault wrote %d, counted %d sends: %v", name, n, pnet.Sends("c", "s")-sends, err)
		}
		if _, err := elsewhere.Write([]byte("ping")); err != nil {
			t.Errorf("%s: a session on another link was closed: %v", name, err)
		}
		elsewhere.Close()
		reached, sends, now := upgrades.Load(), pnet.Sends("c", "s"), clk.Now()
		if rwc, status := upgrade(t, rt, srv.URL); rwc != nil || status != http.StatusNotFound {
			t.Errorf("%s: upgrade across the fault answered %d, want 404", name, status)
		}
		if upgrades.Load() != reached || pnet.Sends("c", "s") != sends || clk.Now() != now {
			t.Errorf("%s: the refused upgrade reached the server, was counted or cost latency", name)
		}
	}
}
