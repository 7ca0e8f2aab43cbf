package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/resilience"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// newSessionFixture is newBinFixture behind an http.Server with the given
// timeouts, so that a session meets them.
func newSessionFixture(t *testing.T, mutate func(*server.Config), read, idle time.Duration) *binFixture {
	t.Helper()
	f := newBinFixture(t, mutate)
	f.ts.Close()
	f.ts = httptest.NewUnstartedServer(f.rec)
	f.ts.Config.ReadTimeout, f.ts.Config.IdleTimeout = read, idle
	f.ts.Start()
	t.Cleanup(f.ts.Close)
	return f
}

// TestSessionLifecycleOnTheClient drives the client's session pool
// through what ends a session: a reused session outlives the server's
// ReadTimeout; a call whose context ends mid-answer closes its session
// and the next call is not handed its answer; a pooled session the
// server closed while idle is retried once on a new one; a time-out's
// 503 closes its session; a draining endpoint closes its sessions, and
// the failover client moves on.
func TestSessionLifecycleOnTheClient(t *testing.T) {
	ctx := context.Background()
	upgrades := func(f *binFixture) int { return f.rec.count(wire.PathSession, "*") }

	t.Run("idle past ReadTimeout", func(t *testing.T) {
		f := newSessionFixture(t, nil, 100*time.Millisecond, 10*time.Second)
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		for i := 0; i < 2; i++ {
			if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
				t.Fatalf("lookup %d: %v", i, err)
			}
			time.Sleep(300 * time.Millisecond)
		}
		if n := upgrades(f); n != 1 {
			t.Errorf("%d sessions opened, want the one reused", n)
		}
	})

	t.Run("cancelled mid-answer", func(t *testing.T) {
		f := newSessionFixture(t, nil, 0, 0)
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		session := f.signup(t, NewAPI(f.ts.URL, f.ts.Client()), "alice")
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatal(err)
		}
		f.srv.SetServiceProfile(300*time.Millisecond, 0)
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := api.Lookup(short, binMeta(2))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lookup past its deadline: %v", err)
		}
		f.srv.SetServiceProfile(0, 0)
		if _, err := api.Vote(ctx, session, binMeta(2), Rating{Score: 5}); err != nil {
			t.Fatalf("the vote after a cut answer: %v", err)
		}
		if n := upgrades(f); n != 2 {
			t.Errorf("%d sessions opened, want 2: the cut one must not be pooled", n)
		}
	})

	t.Run("closed while idle", func(t *testing.T) {
		f := newSessionFixture(t, nil, 0, 100*time.Millisecond)
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond) // the server closes the idle session
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatalf("lookup on a session the server closed: %v", err)
		}
		if n, calls := upgrades(f), f.rec.count(wire.PathLookup, wire.BinaryContentType); n != 2 || calls != 2 {
			t.Errorf("%d sessions opened, %d calls served; want 2 and 2", n, calls)
		}
	})

	t.Run("time-out", func(t *testing.T) {
		f := newSessionFixture(t, func(c *server.Config) { c.RequestTimeout = 50 * time.Millisecond }, 0, 0)
		api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatal(err)
		}
		f.srv.SetServiceProfile(300*time.Millisecond, 0)
		_, err := api.Lookup(ctx, binMeta(2))
		var se *resilience.HTTPStatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.RetryAfter == 0 || !se.Binary {
			t.Fatalf("a call past the deadline: %v, want the 503 frame with Retry-After", err)
		}
		f.srv.SetServiceProfile(0, 0)
		if _, err := api.Lookup(ctx, binMeta(3)); err != nil {
			t.Fatal(err)
		}
		if n := upgrades(f); n != 2 {
			t.Errorf("%d sessions opened, want 2: the 503 ends its session", n)
		}
	})

	t.Run("drain", func(t *testing.T) {
		a, b := newSessionFixture(t, nil, 0, 0), newSessionFixture(t, nil, 0, 0)
		api := NewFailoverAPI([]string{a.ts.URL, b.ts.URL}, nil).EnableBinaryProtocol()
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatal(err)
		}
		a.srv.SetDraining(true)
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatalf("lookup while the first endpoint drains: %v", err)
		}
		if n := b.rec.count(wire.PathLookup, wire.BinaryContentType); n != 1 {
			t.Errorf("the second endpoint served %d calls, want 1", n)
		}
		if eps := pinnedXMLOnly(api); len(eps) != 0 {
			t.Errorf("a draining endpoint was pinned XML-only: %v", eps)
		}
	})
}

// TestXMLBatchBacksOffOnShed: on an endpoint that takes no frames, a
// batch is sent one lookup at a time; when one of them is shed with a
// 429, the batch stops there, as a single lookup would, and the executor
// backs off and sends it again, so that every entry gets its report
// rather than the shed.
func TestXMLBatchBacksOffOnShed(t *testing.T) {
	f := newBinFixture(t, nil).preBinary()
	next, lookups := f.rec.next, atomic.Int32{}
	f.rec.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathLookup && lookups.Add(1) == 2 {
			w.Header().Set("Content-Type", wire.ContentType)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeOverloaded, Message: "shed"})
			return
		}
		next.ServeHTTP(w, r)
	})
	clock := vclock.NewVirtual(vclock.Epoch)
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol().WithResilience(
		resilience.NewExecutor(resilience.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}, nil, clock, 1))
	metas := []core.SoftwareMeta{binMeta(20), binMeta(21), binMeta(22), binMeta(23)}
	results, err := api.LookupBatch(context.Background(), metas)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("entry %d: %v", i, res.Err)
		}
	}
	if slept := clock.Now().Sub(vclock.Epoch); slept < time.Second {
		t.Errorf("the executor backed off %v, want at least the Retry-After", slept)
	}
}

// TestSessionsUnderConcurrentCalls shares one API's session pool among
// goroutines: every call must get its own answer (each program's report
// names its own vendor, echoed from its request), and the pool opens no
// more sessions than calls ever ran at once.
func TestSessionsUnderConcurrentCalls(t *testing.T) {
	const workers, calls = 8, 40
	f := newBinFixture(t, nil)
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			meta := binMeta(byte(100 + w))
			meta.Vendor = fmt.Sprintf("vendor-%d", w)
			for i := 0; i < calls; i++ {
				rep, err := api.Lookup(context.Background(), meta)
				if err == nil && rep.Vendor != meta.Vendor {
					err = fmt.Errorf("worker %d got the report of %q", w, rep.Vendor)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if n := f.rec.count(wire.PathSession, "*"); n > workers {
		t.Errorf("%d sessions opened for %d concurrent callers", n, workers)
	}
}

// TestSessionRefusalsUnderConcurrentCalls is TestSessionsUnderConcurrentCalls
// with every answer a refusal: a binary 400 or a 429 with Retry-After,
// each naming the caller's vendor. Each caller must get its own refusal,
// still a frame, while its session goes back to the pool for the next
// caller: under -race, an error read from the session's buffer after
// the session was handed on is a race, and a corrupted frame would pin
// the endpoint XML-only.
func TestSessionRefusalsUnderConcurrentCalls(t *testing.T) {
	const workers, calls = 8, 40
	f := newBinFixture(t, nil)
	next := f.rec.next
	f.rec.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.PathLookup {
			next.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		payload, _, err := wire.SplitBinaryFrame(body)
		var req wire.LookupRequest
		if err == nil {
			req, err = wire.DecodeBinaryLookup(payload)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", wire.BinaryContentType)
		if strings.HasSuffix(req.Software.Vendor, "-shed") {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write(wire.EncodeBinaryError(&wire.ErrorResponse{Code: wire.CodeOverloaded, Message: req.Software.Vendor}))
			return
		}
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write(wire.EncodeBinaryError(&wire.ErrorResponse{Code: wire.CodeBadRequest, Message: req.Software.Vendor}))
	})
	api := NewAPI(f.ts.URL, f.ts.Client()).EnableBinaryProtocol()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			meta := binMeta(byte(100 + w))
			meta.Vendor = fmt.Sprintf("vendor-%d", w)
			status := http.StatusBadRequest
			if w%2 == 1 {
				meta.Vendor, status = meta.Vendor+"-shed", http.StatusTooManyRequests
			}
			for i := 0; i < calls; i++ {
				_, err := api.Lookup(context.Background(), meta)
				var se *resilience.HTTPStatusError
				var werr *wire.ErrorResponse
				if !errors.As(err, &se) || se.Status != status || !se.Binary || !errors.As(err, &werr) || werr.Message != meta.Vendor {
					errs <- fmt.Errorf("worker %d call %d: %v, want its own %d frame", w, i, err, status)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if eps := pinnedXMLOnly(api); len(eps) != 0 {
		t.Errorf("refusals pinned %v XML-only", eps)
	}
	if n := f.rec.count(wire.PathSession, "*"); n > workers {
		t.Errorf("%d sessions opened for %d concurrent callers: a refusal's session was not pooled", n, workers)
	}
}

// readOnlyUpgrades is a transport wrapper that hands back a 101's body
// without its Write, as a wrapper that does not know sessions may.
type readOnlyUpgrades struct{ next http.RoundTripper }

func (t readOnlyUpgrades) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusSwitchingProtocols {
		resp.Body = io.NopCloser(resp.Body)
	}
	return resp, err
}

// TestUnwritableUpgradePins: a 101 whose body cannot be written to is no
// session; the call goes out as XML and the endpoint is pinned.
func TestUnwritableUpgradePins(t *testing.T) {
	f := newBinFixture(t, nil)
	api := NewAPI(f.ts.URL, &http.Client{Transport: readOnlyUpgrades{f.ts.Client().Transport}}).EnableBinaryProtocol()
	for i := 0; i < 2; i++ {
		if _, err := api.Lookup(context.Background(), binMeta(1)); err != nil {
			t.Fatal(err)
		}
	}
	if eps := pinnedXMLOnly(api); len(eps) != 1 {
		t.Errorf("pinned %v, want the endpoint", eps)
	}
	if up, xml := f.rec.count(wire.PathSession, "*"), f.rec.count(wire.PathLookup, wire.ContentType); up != 1 || xml != 2 {
		t.Errorf("%d upgrades and %d XML lookups, want 1 and 2", up, xml)
	}
}
