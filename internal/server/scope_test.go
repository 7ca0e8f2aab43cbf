package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"softreputation/internal/repcache"
	"softreputation/internal/wire"
)

// TestTimeoutWhileHandlerKeepsWriting: a handler that goes on mutating
// its header map and writing past the deadline races the timer's side of
// the scope. The client must see exactly one well-formed 503 while the
// handler is still running, and the handler must see its writes refused
// and its context cancelled.
func TestTimeoutWhileHandlerKeepsWriting(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	type seen struct {
		writeErr  error
		cancelled bool
	}
	result := make(chan seen, 1)
	ts := httptest.NewServer(srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var s seen
		for i := 0; s.writeErr == nil; i++ {
			w.Header().Set("X-Spin", strconv.Itoa(i))
			w.Header().Add("X-Spin-Log", "x")
			_, s.writeErr = w.Write([]byte("late "))
			if i > 64 {
				time.Sleep(time.Millisecond) // bound the buffer, not the race
			}
		}
		select {
		case <-r.Context().Done():
			s.cancelled = true
		case <-time.After(5 * time.Second):
		}
		<-release // still running: the 503 must not be waiting for this
		w.Header().Set("X-After", "1")
		_, _ = w.Write([]byte("after"))
		result <- s
	})))
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("no well-formed response while the handler runs: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	var werr wire.ErrorResponse
	if err := wire.Decode(bytes.NewReader(body), &werr); err != nil || werr.Code != wire.CodeUnavailable {
		t.Fatalf("body %q: %v", body, err)
	}
	if !resp.Close {
		t.Fatal("time-out 503 must carry Connection: close: the handler still holds the connection")
	}
	for _, h := range []string{"X-Spin", "X-Spin-Log", "X-After"} {
		if resp.Header.Get(h) != "" {
			t.Fatalf("handler's header %s leaked into the time-out answer", h)
		}
	}

	close(release)
	s := <-result
	if !errors.Is(s.writeErr, http.ErrHandlerTimeout) {
		t.Fatalf("late Write error = %v, want http.ErrHandlerTimeout", s.writeErr)
	}
	if !s.cancelled {
		t.Fatal("request context was not cancelled at the deadline")
	}
	// Exactly one response: once the handler returns the server closes
	// the connection, having sent nothing more.
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the 503: %d more bytes (%q), err %v", len(rest), rest, err)
	}
}

// TestArmedContextCancels: the context of an armed request is the
// request's own until the deadline expires or the handler ends, and is
// cancelled from then on, whether the handler first looked at it before
// (early) or after. It makes its cancellable context at the first look.
func TestArmedContextCancels(t *testing.T) {
	for _, early := range []bool{true, false} {
		sc := &scope{header: make(http.Header)}
		ctx := sc.arm(httptest.NewRequest(http.MethodGet, "/", nil), time.Hour).Context()
		if early && ctx.Err() != nil {
			t.Fatalf("armed context starts with Err %v", ctx.Err())
		}
		sc.end()
		select {
		case <-ctx.Done():
		default:
			t.Fatalf("early %v: Done not closed after the handler ended", early)
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Fatalf("early %v: Err = %v after the handler ended", early, ctx.Err())
		}
	}
}

// TestScopeReuseLeaksNothing sends, on one connection, responses that
// differ in status, header set and body size, twice round, so that each
// kind follows each other kind on a recycled scope.
func TestScopeReuseLeaksNothing(t *testing.T) {
	// The daemon's settings, so that the deadline timer is reused too,
	// and a slow threshold no request of this test can reach.
	srv := hardenedServer(t, Config{
		EmailPepper:      "p",
		RequestTimeout:   10 * time.Second,
		AdmissionControl: true,
		TraceSlow:        time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	f := &httpFixture{t: t, srv: srv, ts: ts, client: ts.Client()}
	session := f.signupOverHTTP("alice")
	const batch = 64
	entries := make([]BootstrapEntry, batch)
	infos := make([]wire.SoftwareInfo, batch)
	for i := range entries {
		entries[i] = BootstrapEntry{Meta: testMeta(byte(i)), Score: 7, Votes: 12}
		infos[i] = wireMeta(byte(i))
	}
	if err := f.srv.Bootstrap(entries); err != nil {
		t.Fatal(err)
	}
	var remark bytes.Buffer
	if err := wire.Encode(&remark, &wire.RemarkRequest{Session: session, CommentID: 999, Positive: true}); err != nil {
		t.Fatal(err)
	}

	reused := false
	trace := &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) { reused = i.Reused }}
	do := func(path, contentType string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, f.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := f.client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(got)) {
			t.Fatalf("%s: Content-Length %d, body %d bytes", path, resp.ContentLength, len(got))
		}
		return resp, got
	}
	headerSet := func(resp *http.Response) string {
		var keys []string
		for k := range resp.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	const common = "Content-Length,Content-Type,Date,X-Reputation-Epoch,X-Reputation-Request-Id,X-Reputation-Seq"

	do(wire.PathLookup, wire.BinaryContentType, wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[0]})) // fills the cache
	var ids []string
	for round := 0; round < 2; round++ {
		// A 404 with the XML error document.
		resp, body := do(wire.PathRemark, wire.ContentType, remark.Bytes())
		var werr wire.ErrorResponse
		if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != wire.ContentType ||
			wire.Decode(bytes.NewReader(body), &werr) != nil || werr.Code != wire.CodeNotFound {
			t.Fatalf("round %d: 404 answered %d %q", round, resp.StatusCode, body)
		}
		if got := headerSet(resp); got != common {
			t.Fatalf("round %d: 404 header set %s", round, got)
		}
		if round > 0 && !reused {
			t.Fatal("the requests did not share a connection")
		}
		ids = append(ids, resp.Header.Get(wire.HeaderRequestID))

		// A binary cache hit: one report frame.
		resp, body = do(wire.PathLookup, wire.BinaryContentType, wire.EncodeBinaryLookup(&wire.LookupRequest{Software: infos[0]}))
		frames := readFrames(t, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.BinaryContentType || len(frames) != 1 {
			t.Fatalf("round %d: hit answered %d with %d frames", round, resp.StatusCode, len(frames))
		}
		if rep, err := wire.DecodeBinaryReport(frames[0]); err != nil || rep.ID != infos[0].ID {
			t.Fatalf("round %d: hit decoded to %+v, %v", round, rep, err)
		}
		if got := headerSet(resp); got != common || !reused {
			t.Fatalf("round %d: hit header set %s, reused %v", round, got, reused)
		}
		ids = append(ids, resp.Header.Get(wire.HeaderRequestID))

		// A 64-entry batch: 64 frames, in order, and nothing else.
		resp, body = do(wire.PathLookupBatch, wire.BinaryContentType, wire.EncodeBinaryLookupBatch(infos, nil))
		frames = readFrames(t, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK || len(frames) != batch {
			t.Fatalf("round %d: batch answered %d with %d frames", round, resp.StatusCode, len(frames))
		}
		for i, payload := range frames {
			if rep, err := wire.DecodeBinaryReport(payload); err != nil || rep.ID != infos[i].ID {
				t.Fatalf("round %d: batch frame %d decoded to %+v, %v", round, i, rep, err)
			}
		}
		if got := headerSet(resp); got != common || !reused {
			t.Fatalf("round %d: batch header set %s, reused %v", round, got, reused)
		}
		ids = append(ids, resp.Header.Get(wire.HeaderRequestID))

		// A 400 with a binary error frame: an error without trace detail,
		// on a scope whose buffer last held something else.
		resp, body = do(wire.PathLookup, wire.BinaryContentType, []byte("not a frame"))
		if frames = readFrames(t, bytes.NewReader(body)); resp.StatusCode != http.StatusBadRequest || len(frames) != 1 {
			t.Fatalf("round %d: malformed frame answered %d %q", round, resp.StatusCode, body)
		}
		ids = append(ids, resp.Header.Get(wire.HeaderRequestID))
	}

	// Trace detail: the 404s carry their own error document, the binary
	// 400s carry none, and no event shows another response's bytes.
	details := make(map[string]string)
	for _, ev := range f.srv.Trace().Events() {
		details[ev.ID] = ev.Detail
	}
	for i, id := range ids {
		detail, traced := details[id]
		switch i % 4 {
		case 0:
			if !strings.HasPrefix(detail, "<?xml") || !strings.Contains(detail, wire.CodeNotFound) {
				t.Fatalf("404 trace detail = %q", detail)
			}
		case 3:
			if !traced || detail != "" {
				t.Fatalf("binary 400 traced %v with detail %q, want an event without detail", traced, detail)
			}
		default:
			if traced {
				t.Fatalf("a fast 200 was traced: %q", detail)
			}
		}
	}
}

// TestLargeResponseIsServedButNotPooled: a response past the retention
// cap goes out whole, and the scope gives its buffer up.
func TestLargeResponseIsServedButNotPooled(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 10 * time.Second})
	want := bytes.Repeat([]byte("0123456789abcdef"), (maxPooledBuffer+64<<10)/16)
	h := srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for off := 0; off < len(want); off += 4096 {
			_, _ = w.Write(want[off:min(off+4096, len(want))])
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("large response: status %d, %d of %d bytes", rec.Code, rec.Body.Len(), len(want))
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length = %s, want %d", got, len(want))
	}

	// The same, on a scope held outside the pool so that it can be
	// inspected after it was recycled.
	sc := &scope{header: make(http.Header)}
	_, _ = sc.Write(want)
	sc.in.Write(want)
	if !sc.recycle() {
		t.Fatal("a scope that neither timed out nor panicked must be reusable")
	}
	if sc.out.Cap() != 0 || sc.in.Cap() != 0 {
		t.Fatalf("recycled scope kept %d + %d buffer bytes, cap is %d", sc.out.Cap(), sc.in.Cap(), maxPooledBuffer)
	}
	_, _ = sc.Write(want[:4096])
	if !sc.recycle() || sc.out.Cap() == 0 {
		t.Fatal("a buffer under the cap must be kept")
	}
}

// TestSilentHandlerStillGetsStamped: a handler that writes nothing is
// answered 200 with the request id, the fencing position and
// Content-Length: 0.
func TestSilentHandlerStillGetsStamped(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.harden(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})))
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.HeaderRequestID, "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 0 {
		t.Fatalf("status %d, Content-Length %d", resp.StatusCode, resp.ContentLength)
	}
	if got := resp.Header.Get("Content-Length"); got != "0" {
		t.Fatalf("Content-Length header = %q, want 0", got)
	}
	if got := resp.Header.Get(wire.HeaderRequestID); got != "caller-chose-this" {
		t.Fatalf("request id echo = %q", got)
	}
	if resp.Header.Get(wire.HeaderEpoch) != "0" || resp.Header.Get(wire.HeaderAckSeq) == "" {
		t.Fatalf("fencing headers missing: %v", resp.Header)
	}
}

// TestFencePositionFollowsWrites: the cached header strings are
// replaced when the committed position moves, never edited in place.
func TestFencePositionFollowsWrites(t *testing.T) {
	f := newHTTPFixture(t)
	before := f.srv.fencePosition()
	if again := f.srv.fencePosition(); again != before {
		t.Fatal("an unchanged position was rendered twice")
	}
	f.signupOverHTTP("alice")
	after := f.srv.fencePosition()
	if after == before || after.seq <= before.seq {
		t.Fatalf("position did not follow the write: %d -> %d", before.seq, after.seq)
	}
	if before.seqValue[0] != strconv.FormatUint(before.seq, 10) || after.seqValue[0] != strconv.FormatUint(after.seq, 10) {
		t.Fatalf("rendered %q and %q for %d and %d", before.seqValue, after.seqValue, before.seq, after.seq)
	}
}

// TestRequestBufferIsFormatKey: what readBody leaves in the scope's
// buffer is the body's cache key, in both formats, on a reused scope.
func TestRequestBufferIsFormatKey(t *testing.T) {
	sc := scopes.Get().(*scope)
	for _, bin := range []bool{true, false, true} {
		sc.bin = bin
		body := "\x00some request bytes\xff"
		got, err := sc.readBody(httptest.NewRequest(http.MethodPost, wire.PathLookup, strings.NewReader(body)))
		if err != nil || string(got) != body {
			t.Fatalf("readBody = %q, %v", got, err)
		}
		format := repcache.FormatXML
		if bin {
			format = repcache.FormatBinary
		}
		if key, want := string(sc.in.Bytes()), repcache.FormatKey(format, body); key != want {
			t.Fatalf("binary %v: request buffer = %q, FormatKey = %q", bin, key, want)
		}
	}
}

// TestPanickingHandlerLeaksNothing: the panic reaches net/http (the
// client sees the connection cut), and the inflight count, the
// admission slot and the deadline timer are all given back.
func TestPanickingHandlerLeaksNothing(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 30 * time.Millisecond, AdmissionControl: true})
	ts := httptest.NewServer(srv.harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			_, _ = w.Write([]byte("half a response"))
			panic(http.ErrAbortHandler)
		}
	})))
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/panic"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking handler answered %d, want a cut connection", resp.StatusCode)
	}
	if n, slots := srv.InflightRequests(), srv.Admission().Snapshot().Inflight; n != 0 || slots != 0 {
		t.Fatalf("after the panic: %d inflight, %d admission slots held", n, slots)
	}
	// Past the panicked request's deadline: a timer left armed would
	// write its 503 onto a connection net/http has torn down.
	time.Sleep(60 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic answered %d", resp.StatusCode)
	}
}
