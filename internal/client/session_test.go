package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// server is about to close, idle for three quarters of the idle timeout
// its 101 named, is dropped before a lookup or a vote is written on it,
// and the call goes out on a new one; a time-out's 503 closes its
// session; a draining endpoint closes its sessions, and the failover
// client moves on.
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

	t.Run("vote after an idle close", func(t *testing.T) {
		f := newSessionFixture(t, nil, 0, 50*time.Millisecond)
		api := NewAPI(f.ts.URL, f.ts.Client())
		session := f.signup(t, api, "alice")
		if _, err := api.Lookup(ctx, binMeta(1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Millisecond) // the user answers the prompt
		if _, err := api.Vote(ctx, session, binMeta(1), Rating{Score: 5}); err != nil {
			t.Fatalf("a vote after the server closed the idle session: %v", err)
		}
		if n, votes := upgrades(f), f.rec.count(wire.PathVote, wire.ContentType); n != 2 || votes != 1 {
			t.Errorf("%d sessions opened, %d votes served; want 2 and 1", n, votes)
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
		if eps := pinnedNoSession(api); len(eps) != 0 {
			t.Errorf("a draining endpoint was pinned: %v", eps)
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
// the session was handed on is a race, and a corrupted frame fails the
// call.
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
	if eps := pinnedNoSession(api); len(eps) != 0 {
		t.Errorf("refusals pinned %v", eps)
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
	if eps := pinnedNoSession(api); len(eps) != 1 {
		t.Errorf("pinned %v, want the endpoint", eps)
	}
	if up, xml := f.rec.count(wire.PathSession, "*"), f.rec.count(wire.PathLookup, wire.ContentType); up != 1 || xml != 2 {
		t.Errorf("%d upgrades and %d XML lookups, want 1 and 2", up, xml)
	}
}

// sessionStub is a session server by hand: it accepts upgrades in either
// codec, advertises no idle timeout, answers each lookup call with an
// unknown program's report (and then, with hangUp, closes the session, as
// a server closes an idle one) and closes the session, unanswered, on a
// vote call. It counts upgrades, lookups and votes.
type sessionStub struct {
	ln                       net.Listener
	hangUp                   bool
	upgrades, lookups, votes atomic.Int32
}

func newSessionStub(t *testing.T) *sessionStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &sessionStub{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *sessionStub) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil || req.URL.Path != wire.PathSession {
		return
	}
	s.upgrades.Add(1)
	token := req.Header.Get("Upgrade")
	_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+token+"\r\n\r\n")
	for {
		payload, err := wire.ReadBinaryFrameInto(br, nil, wire.MaxBinaryFrame)
		var call wire.Call
		if err != nil || call.Read(payload) != nil {
			return
		}
		if call.Op == wire.OpVote {
			s.votes.Add(1)
			return // the vote may have committed; its answer is lost
		}
		s.lookups.Add(1) // before the answer, which the test may read the count after
		body := wire.EncodeBinaryReport(&wire.LookupResponse{ID: binMeta(1).ID.String()})
		if token == wire.SessionUpgradeXML {
			var buf bytes.Buffer
			_ = wire.Encode(&buf, &wire.LookupResponse{ID: binMeta(1).ID.String()})
			body = buf.Bytes()
		}
		_, _ = conn.Write(wire.AppendAnswer(nil, &wire.Answer{Status: http.StatusOK, RequestID: call.RequestID, Body: body}))
		if s.hangUp {
			return
		}
	}
}

// TestVoteIsNotResentOnAReusedSession: a vote whose session fails after
// the call was written, before any answer byte, may have committed, so
// the client returns the transport error rather than send it again,
// which would come back as "already rated". The stub sees the one vote
// and no second session.
func TestVoteIsNotResentOnAReusedSession(t *testing.T) {
	for _, binary := range []bool{false, true} {
		stub := newSessionStub(t)
		api := NewAPI("http://"+stub.ln.Addr().String(), nil)
		if binary {
			api.EnableBinaryProtocol()
		}
		if _, err := api.Lookup(context.Background(), binMeta(1)); err != nil {
			t.Fatalf("binary=%v: lookup: %v", binary, err)
		}
		_, err := api.Vote(context.Background(), "session", binMeta(1), Rating{Score: 5})
		var se *resilience.HTTPStatusError
		if err == nil || errors.As(err, &se) {
			t.Errorf("binary=%v: a vote whose answer was lost: %v, want a transport error", binary, err)
		}
		if v, up := stub.votes.Load(), stub.upgrades.Load(); v != 1 || up != 1 {
			t.Errorf("binary=%v: the stub saw %d votes on %d sessions, want 1 on 1", binary, v, up)
		}
	}
}

// TestLookupIsResentOnAStaleSession: a lookup written on a pooled session
// that the server closed while idle, without having said when it would,
// fails before any answer byte; a lookup commits nothing, so the client
// sends it once more on a new session.
func TestLookupIsResentOnAStaleSession(t *testing.T) {
	stub := newSessionStub(t)
	stub.hangUp = true
	api := NewAPI("http://"+stub.ln.Addr().String(), nil)
	for i := 0; i < 2; i++ {
		if _, err := api.Lookup(context.Background(), binMeta(1)); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if l, up := stub.lookups.Load(), stub.upgrades.Load(); l != 2 || up != 2 {
		t.Errorf("the stub answered %d lookups on %d sessions, want 2 on 2", l, up)
	}
}

// TestXMLApplicationErrorDoesNotPin: a 400, 404 or 409 that answers a
// call on an XML session is the application's answer, as a binary error
// frame's is: the client returns it after the one call, sends no HTTP
// request and pins nothing.
func TestXMLApplicationErrorDoesNotPin(t *testing.T) {
	f := newBinFixture(t, nil)
	next := f.rec.next
	f.rec.next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.PathLookup {
			next.ServeHTTP(w, r)
			return
		}
		var req wire.LookupRequest
		if err := wire.Decode(r.Body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		status, _ := strconv.Atoi(req.Software.Vendor)
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(status)
		_ = wire.Encode(w, &wire.ErrorResponse{Code: wire.CodeNotFound, Message: req.Software.Vendor})
	})
	api := NewAPI(f.ts.URL, f.ts.Client())
	for i, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict} {
		meta := binMeta(1)
		meta.Vendor = strconv.Itoa(status)
		_, err := api.Lookup(context.Background(), meta)
		var se *resilience.HTTPStatusError
		var werr *wire.ErrorResponse
		if !errors.As(err, &se) || se.Status != status || se.Binary || !errors.As(err, &werr) || werr.Message != meta.Vendor {
			t.Errorf("%d: %v, want the application's %d", status, err, status)
		}
		if n := f.rec.count(wire.PathLookup, wire.ContentType); n != i+1 {
			t.Errorf("%d: %d lookups reached the server after %d calls: one was re-sent", status, n, i+1)
		}
	}
	if up := f.rec.count(wire.PathSession, "*"); up != 1 {
		t.Errorf("%d upgrades, want the one session", up)
	}
	if eps := pinnedNoSession(api); len(eps) != 0 {
		t.Errorf("an application answer pinned %v", eps)
	}
}
