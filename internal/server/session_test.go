package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// rawSession is a session driven by hand over a raw connection: the
// upgrade as a binary client writes it, then call frames out and answer
// frames in.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// dialSession opens a binary session to the server at base. When the
// upgrade is refused, it returns nil and the refusal.
func dialSession(t *testing.T, base string) (*rawSession, *http.Response) {
	t.Helper()
	return dialSessionAs(t, base, wire.BinaryContentType, wire.SessionUpgrade)
}

// dialSessionAs is dialSession in the codec of contentType, asked for by
// token; the 101 must name the token.
func dialSessionAs(t *testing.T, base, contentType, token string) (*rawSession, *http.Response) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	req, _ := http.NewRequest(http.MethodPost, base+wire.PathSession, nil)
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", token)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, resp
	}
	if got := resp.Header.Get("Upgrade"); got != token {
		t.Fatalf("the 101 names %q, want %q", got, token)
	}
	return &rawSession{t: t, conn: conn, br: br}, nil
}

// call sends one call and reads its answer.
func (rs *rawSession) call(c *wire.Call) wire.Answer {
	rs.t.Helper()
	if _, err := rs.conn.Write(wire.AppendCall(nil, c)); err != nil {
		rs.t.Fatal(err)
	}
	return rs.answer()
}

// answer reads one answer frame.
func (rs *rawSession) answer() wire.Answer {
	rs.t.Helper()
	payload, err := wire.ReadBinaryFrameInto(rs.br, nil, wire.MaxBinaryFrame)
	if err != nil {
		rs.t.Fatalf("answer: %v", err)
	}
	var a wire.Answer
	if err := a.Read(payload); err != nil {
		rs.t.Fatal(err)
	}
	return a
}

// closed reports whether the server has closed the session's connection.
func (rs *rawSession) closed() bool {
	_ = rs.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := rs.br.ReadByte()
	return errors.Is(err, io.EOF)
}

// TestSessionMatchesHTTP is the differential test: for the report goldens'
// requests (the single lookups, with and without feeds, the first sight,
// and the batch), the frames inside a session's answer are byte for byte
// the body of the same request's binary HTTP response.
func TestSessionMatchesHTTP(t *testing.T) {
	f := newReportFixture(t, false)
	ts := httptest.NewServer(f.handler)
	defer ts.Close()
	rs, refused := dialSession(t, ts.URL)
	if rs == nil {
		t.Fatalf("upgrade refused: %s", refused.Status)
	}
	type golden struct {
		name string
		op   byte
		req  []byte
	}
	lookup := func(seed byte, feeds []string) []byte {
		return wire.EncodeBinaryLookup(&wire.LookupRequest{Software: fixInfo(seed), Feeds: feeds})
	}
	seeds := []byte{fixNone, fixThree, fixTen, fixUnknownVendor, fixStripped}
	infos := make([]wire.SoftwareInfo, len(seeds))
	for i, seed := range seeds {
		infos[i] = fixInfo(seed)
	}
	cases := []golden{
		{"none", wire.OpLookup, lookup(fixNone, nil)},
		{"three", wire.OpLookup, lookup(fixThree, nil)},
		{"ten", wire.OpLookup, lookup(fixTen, nil)},
		{"unknown_vendor", wire.OpLookup, lookup(fixUnknownVendor, nil)},
		{"stripped_vendor", wire.OpLookup, lookup(fixStripped, nil)},
		{"feeds", wire.OpLookup, lookup(fixThree, fixFeeds)},
		{"batch", wire.OpLookupBatch, wire.EncodeBinaryLookupBatch(infos, nil)},
	}
	for _, c := range cases {
		viaHTTP := f.post(t, wire.OpPath(c.op), wire.BinaryContentType, c.req)
		a := rs.call(&wire.Call{Op: c.op, RequestID: []byte("0123456789abcdef"), Request: c.req})
		if a.Status != http.StatusOK || string(a.RequestID) != "0123456789abcdef" {
			t.Fatalf("%s: answer %d for %q", c.name, a.Status, a.RequestID)
		}
		if !bytes.Equal(a.Body, viaHTTP) {
			t.Errorf("%s: session frames differ from the HTTP body:\n got: %q\nwant: %q", c.name, a.Body, viaHTTP)
		}
	}
	// First sight: a session's call registers the program as HTTP's would,
	// and the answer is the golden.
	a := rs.call(&wire.Call{Op: wire.OpLookup, Request: lookup(fixFirstSight, nil)})
	checkGolden(t, "report_first_sight.golden.bin", a.Body)
	t.Run("xml", sessionMatchesHTTPInXML)
}

// sessionMatchesHTTPInXML is TestSessionMatchesHTTP's XML rows, on an XML
// session, against two servers built alike and kept in step: each row's
// document goes to one as a call on an XML session and to the other as an
// HTTP request, and the answer must be that response: the same status,
// Retry-After, epoch and committed seq, and the body byte for byte. The
// rows are a lookup's miss (first sight) and then its hit, a vote, an
// admission shed (429) and a malformed document (400). A call frame the
// session cannot read is answered 400 as an XML error document, and the
// session goes on. A refusal's Retry-After is jittered, so it need only
// fall in the same range.
func sessionMatchesHTTPInXML(t *testing.T) {
	admitted := func(c *Config) { c.AdmissionControl = true }
	viaSession, viaHTTP := newHTTPFixtureWith(t, admitted), newHTTPFixtureWith(t, admitted)
	tokens := []string{registerAndLogin(t, viaSession.srv, "voter"), registerAndLogin(t, viaHTTP.srv, "voter")}
	rs, refused := dialSessionAs(t, viaSession.ts.URL, wire.ContentType, wire.SessionUpgradeXML)
	if rs == nil {
		t.Fatalf("upgrade refused: %s", refused.Status)
	}
	xmlOf := func(v interface{}) []byte {
		var buf bytes.Buffer
		if err := wire.Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	lookup := xmlOf(&wire.LookupRequest{Software: wireMeta(7)})
	vote := func(session string) []byte {
		return xmlOf(&wire.VoteRequest{Session: session, Software: wireMeta(7), Score: 7, Comment: "fine"})
	}
	shed := func(l admission.Level) func() {
		return func() {
			viaSession.srv.Admission().SetLevel(l)
			viaHTTP.srv.Admission().SetLevel(l)
		}
	}
	rows := []struct {
		name   string
		op     byte
		doc    func(server int) []byte
		before func()
		status int
	}{
		{name: "lookup miss", op: wire.OpLookup, doc: func(int) []byte { return lookup }, status: http.StatusOK},
		{name: "lookup hit", op: wire.OpLookup, doc: func(int) []byte { return lookup }, status: http.StatusOK},
		{name: "vote", op: wire.OpVote, doc: func(i int) []byte { return vote(tokens[i]) }, status: http.StatusOK},
		{name: "shed", op: wire.OpLookup, doc: func(int) []byte { return lookup },
			before: shed(admission.LevelCriticalOnly), status: http.StatusTooManyRequests},
		{name: "malformed document", op: wire.OpLookup, doc: func(int) []byte { return []byte("<lookup><software>") },
			before: shed(admission.LevelFull), status: http.StatusBadRequest},
	}
	num := func(v string) uint64 {
		n, _ := strconv.ParseUint(v, 10, 64)
		return n
	}
	for _, row := range rows {
		if row.before != nil {
			row.before()
		}
		a := rs.call(&wire.Call{Op: row.op, RequestID: []byte("0123456789abcdef"), Request: row.doc(0)})
		resp, err := viaHTTP.client.Post(viaHTTP.ts.URL+wire.OpPath(row.op), wire.ContentType, bytes.NewReader(row.doc(1)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != row.status {
			t.Fatalf("%s: HTTP answered %d, want %d: %s", row.name, resp.StatusCode, row.status, body)
		}
		// A refusal's Retry-After is drawn from [1, 2] s for each answer.
		retryAfter := num(resp.Header.Get("Retry-After"))
		if row.status == http.StatusTooManyRequests && a.RetryAfter != retryAfter && min(a.RetryAfter, retryAfter) >= 1 && max(a.RetryAfter, retryAfter) <= 2 {
			retryAfter = a.RetryAfter
		}
		if a.Status != resp.StatusCode || a.RetryAfter != retryAfter ||
			a.Epoch != num(resp.Header.Get(wire.HeaderEpoch)) || a.AckSeq != num(resp.Header.Get(wire.HeaderAckSeq)) {
			t.Errorf("%s: answer status %d, Retry-After %d, epoch %d, seq %d; HTTP %d, %q, %q, %q", row.name,
				a.Status, a.RetryAfter, a.Epoch, a.AckSeq, resp.StatusCode, resp.Header.Get("Retry-After"),
				resp.Header.Get(wire.HeaderEpoch), resp.Header.Get(wire.HeaderAckSeq))
		}
		if !bytes.Equal(a.Body, body) {
			t.Errorf("%s: the session's body differs from the HTTP body:\n got: %q\nwant: %q", row.name, a.Body, body)
		}
	}
	if _, err := rs.conn.Write(wire.AppendCall(nil, &wire.Call{Op: 99, Request: lookup})); err != nil {
		t.Fatal(err)
	}
	a := rs.answer()
	var werr wire.ErrorResponse
	if err := wire.Decode(bytes.NewReader(a.Body), &werr); err != nil || a.Status != http.StatusBadRequest || werr.Code != wire.CodeBadRequest {
		t.Errorf("a call of an unknown operation: answered %d %q (%v)", a.Status, a.Body, err)
	}
	if a := rs.call(&wire.Call{Op: wire.OpLookup, Request: lookup}); a.Status != http.StatusOK {
		t.Fatalf("the call after a refused frame was answered %d", a.Status)
	}
}

// TestMalformedCallKeepsSession: a call frame whose CRC fails, a call of
// an unknown operation and a call carrying a malformed lookup frame are
// each answered 400 with a binary error frame, and the session serves the
// next call, as TestMalformedBinaryFrameKeepsConnection holds HTTP to. A
// length past MaxBinaryFrame leaves no boundary to trust: the session
// ends.
func TestMalformedCallKeepsSession(t *testing.T) {
	f := newHTTPFixture(t)
	rs, _ := dialSession(t, f.ts.URL)
	good := &wire.Call{Op: wire.OpLookup, Request: wire.EncodeBinaryLookup(&wire.LookupRequest{Software: wireMeta(1)})}
	badCRC := wire.AppendCall(nil, good)
	badCRC[len(badCRC)-1] ^= 0xFF
	badLookup := append([]byte(nil), good.Request...)
	badLookup[len(badLookup)-1] ^= 0xFF
	for name, frame := range map[string][]byte{
		"crc":          badCRC,
		"unknown op":   wire.AppendCall(nil, &wire.Call{Op: 99, Request: good.Request}),
		"inner frame":  wire.AppendCall(nil, &wire.Call{Op: wire.OpLookup, Request: badLookup}),
		"empty lookup": wire.AppendCall(nil, &wire.Call{Op: wire.OpLookup}),
	} {
		if _, err := rs.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		a := rs.answer()
		payload, _, err := wire.SplitBinaryFrame(a.Body)
		var werr *wire.ErrorResponse
		if err == nil {
			werr, err = wire.DecodeBinaryError(payload)
		}
		if a.Status != http.StatusBadRequest || err != nil || werr.Code != wire.CodeBadRequest || a.Close {
			t.Errorf("%s: answered %d %v close=%v (%v)", name, a.Status, werr, a.Close, err)
		}
		if a := rs.call(good); a.Status != http.StatusOK {
			t.Fatalf("%s: the next call was answered %d", name, a.Status)
		}
	}
	forged := wire.AppendCall(nil, good)
	forged[0] = 0xFF // a length past MaxBinaryFrame
	if _, err := rs.conn.Write(forged); err != nil {
		t.Fatal(err)
	}
	if !rs.closed() {
		t.Error("a forged length did not end the session")
	}
}

// TestSessionCallIDReachesTrace: a notable call on a session (a malformed
// lookup, answered 400) is traced under the request id its frame carries,
// both when the calls run through the server's own chain, which reads the
// id from the frame, and through a handler in front of it, which gets the
// id as the request's header. An id the server cannot adopt is traced
// under one it mints, and the answer still echoes the frame's bytes.
func TestSessionCallIDReachesTrace(t *testing.T) {
	const valid, invalid = "session-call-7", "has space"
	traced := regexp.MustCompile(`id=(\S+) POST ` + wire.PathLookup + ` status=400`)
	for _, wrapped := range []bool{false, true} {
		f := newHTTPFixture(t)
		f.ts.Close()
		h := http.Handler(f.srv.Handler())
		var mu sync.Mutex
		var headers []string // the request id each call carried into the wrapper
		if wrapped {
			own := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == wire.PathLookup {
					mu.Lock()
					headers = append(headers, r.Header.Get(wire.HeaderRequestID))
					mu.Unlock()
				}
				own.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		rs, _ := dialSession(t, ts.URL)
		for _, id := range []string{valid, invalid} {
			a := rs.call(&wire.Call{Op: wire.OpLookup, RequestID: []byte(id), Request: []byte("not a lookup frame")})
			if a.Status != http.StatusBadRequest || string(a.RequestID) != id {
				t.Fatalf("wrapped=%v: a malformed lookup answered %d for %q, want 400 for %q", wrapped, a.Status, a.RequestID, id)
			}
		}
		mu.Lock()
		if wrapped && !slices.Equal(headers, []string{valid, invalid}) {
			t.Errorf("the wrapper saw request ids %q, want %q", headers, []string{valid, invalid})
		}
		mu.Unlock()
		resp, err := ts.Client().Get(ts.URL + wire.PathTrace)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var ids []string // newest first
		for _, m := range traced.FindAllStringSubmatch(string(body), -1) {
			ids = append(ids, m[1])
		}
		if len(ids) != 2 || ids[1] != valid || len(ids[0]) != 2*telemetry.RequestIDBytes || !telemetry.ValidRequestID(ids[0]) {
			t.Errorf("wrapped=%v: /trace holds the 400s under %q, want a minted id and %q:\n%s", wrapped, ids, valid, body)
		}
	}
}

// TestSessionLifecycle holds the session to the server's timeouts: a
// session idle past ReadTimeout serves its next call (the opening
// request's deadlines are gone, the idle one is IdleTimeout), a session
// idle past IdleTimeout is closed, a call past RequestTimeout is answered
// 503 with Retry-After while its handler still runs and ends the session,
// a call whose frame stalls after its header is cut at ReadTimeout, and a
// drain closes an idle session and answers an in-flight call, then
// closes its session too.
func TestSessionLifecycle(t *testing.T) {
	serve := func(t *testing.T, mutate func(*Config), hs *http.Server) (*Server, string) {
		t.Helper()
		f := newHTTPFixtureWith(t, mutate)
		f.ts.Close()
		ts := httptest.NewUnstartedServer(f.srv.Handler())
		if hs != nil {
			ts.Config.ReadTimeout, ts.Config.WriteTimeout, ts.Config.IdleTimeout = hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout
		}
		ts.Start()
		t.Cleanup(ts.Close)
		return f.srv, ts.URL
	}
	lookup := &wire.Call{Op: wire.OpLookup, Request: wire.EncodeBinaryLookup(&wire.LookupRequest{Software: wireMeta(1)})}

	t.Run("idle past ReadTimeout", func(t *testing.T) {
		_, base := serve(t, nil, &http.Server{ReadTimeout: 100 * time.Millisecond, IdleTimeout: 10 * time.Second})
		rs, _ := dialSession(t, base)
		for i := 0; i < 2; i++ {
			if a := rs.call(lookup); a.Status != http.StatusOK {
				t.Fatalf("call %d answered %d", i, a.Status)
			}
			time.Sleep(300 * time.Millisecond)
		}
	})

	t.Run("idle past IdleTimeout", func(t *testing.T) {
		_, base := serve(t, nil, &http.Server{IdleTimeout: 100 * time.Millisecond})
		rs, _ := dialSession(t, base)
		if a := rs.call(lookup); a.Status != http.StatusOK {
			t.Fatalf("answered %d", a.Status)
		}
		if !rs.closed() {
			t.Error("an idle session outlived IdleTimeout")
		}
	})

	t.Run("time-out", func(t *testing.T) {
		srv, base := serve(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond }, nil)
		rs, _ := dialSession(t, base)
		srv.SetServiceProfile(500*time.Millisecond, 0)
		start := time.Now()
		a := rs.call(lookup)
		if a.Status != http.StatusServiceUnavailable || a.RetryAfter == 0 || !a.Close {
			t.Fatalf("answered %d, Retry-After %d, close %v; want a closing 503 with Retry-After", a.Status, a.RetryAfter, a.Close)
		}
		if d := time.Since(start); d > 400*time.Millisecond {
			t.Errorf("the 503 waited %v for the handler", d)
		}
		if !rs.closed() {
			t.Error("the session outlived its time-out")
		}
	})

	t.Run("stalled call", func(t *testing.T) {
		_, base := serve(t, nil, &http.Server{ReadTimeout: 200 * time.Millisecond, IdleTimeout: 10 * time.Second})
		rs, _ := dialSession(t, base)
		if a := rs.call(lookup); a.Status != http.StatusOK {
			t.Fatalf("answered %d", a.Status)
		}
		// A header that claims a megabyte, a few bytes, then nothing: the
		// call has ReadTimeout to arrive, as a request's body has.
		stalled := binary.BigEndian.AppendUint32(nil, wire.MaxBinaryFrame)
		stalled = append(binary.BigEndian.AppendUint32(stalled, 0), "a few bytes"...)
		if _, err := rs.conn.Write(stalled); err != nil {
			t.Fatal(err)
		}
		if !rs.closed() { // waits 2 s, well short of IdleTimeout
			t.Error("a stalled call outlived ReadTimeout")
		}
	})

	t.Run("drain", func(t *testing.T) {
		srv, base := serve(t, nil, nil)
		idle, _ := dialSession(t, base)
		busy, _ := dialSession(t, base)
		for _, rs := range []*rawSession{idle, busy} {
			if a := rs.call(lookup); a.Status != http.StatusOK {
				t.Fatalf("answered %d", a.Status)
			}
		}
		srv.SetServiceProfile(300*time.Millisecond, 0)
		if _, err := busy.conn.Write(wire.AppendCall(nil, lookup)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond) // the call is in its handler
		srv.SetDraining(true)
		if !idle.closed() {
			t.Error("the drain left an idle session open")
		}
		if a := busy.answer(); a.Status != http.StatusOK || !a.Close {
			t.Errorf("the in-flight call was answered %d, close %v; want its 200, closing", a.Status, a.Close)
		}
		if !busy.closed() {
			t.Error("the drain left a busy session open after its answer")
		}
		// A draining server refuses the upgrade as it refuses a binary request.
		if rs, refused := dialSession(t, base); rs != nil || refused.StatusCode != http.StatusServiceUnavailable ||
			refused.Header.Get("Content-Type") != wire.BinaryContentType || refused.Header.Get("Retry-After") == "" {
			t.Errorf("a draining server opened a session or refused it wrongly: %v", refused)
		}
	})
}

// logLines is a log destination that hands each line to the test.
type logLines chan string

func (c logLines) Write(p []byte) (int, error) {
	c <- string(p)
	return len(p), nil
}

// TestSessionPanicLeaksNothing is TestPanickingHandlerLeaksNothing on a
// session: a handler that panics behind a call cuts that session's
// connection alone and logs the panic unless it is http.ErrAbortHandler;
// the inflight count, the admission slot and the deadline timer are
// given back; and the server goes on serving.
func TestSessionPanicLeaksNothing(t *testing.T) {
	srv := hardenedServer(t, Config{EmailPepper: "p", RequestTimeout: 30 * time.Millisecond, AdmissionControl: true})
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathSession, func(w http.ResponseWriter, r *http.Request) { srv.handleSession(w.(*scope), r) })
	mux.HandleFunc(wire.PathLookup, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch string(body) {
		case "abort":
			panic(http.ErrAbortHandler)
		case "boom":
			panic("boom")
		}
		// A call's context carries what an HTTP request's does.
		ctx := r.Context()
		if _, ok := ctx.Value(http.ServerContextKey).(*http.Server); !ok || ctx.Value(http.LocalAddrContextKey) == nil {
			http.Error(w, "no server in the call's context", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte("ok"))
	})
	logged := make(logLines, 8)
	ts := httptest.NewUnstartedServer(srv.harden(mux))
	ts.Config.ErrorLog = log.New(logged, "", 0)
	ts.Start()
	defer ts.Close()
	for _, body := range []string{"abort", "boom"} {
		rs, _ := dialSession(t, ts.URL)
		// The upgrade is a request of its own, and holds a slot until its
		// handler returns, which may be after the 101 reached the client.
		for start := time.Now(); srv.InflightRequests() != 0 || srv.Admission().Snapshot().Inflight != 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > 2*time.Second {
				t.Fatalf("%s: the upgrade request still holds its slot", body)
			}
		}
		if _, err := rs.conn.Write(wire.AppendCall(nil, &wire.Call{Op: wire.OpLookup, Request: []byte(body)})); err != nil {
			t.Fatal(err)
		}
		if !rs.closed() {
			t.Fatalf("%s: the session outlived its handler's panic", body)
		}
		if n, slots := srv.InflightRequests(), srv.Admission().Snapshot().Inflight; n != 0 || slots != 0 {
			t.Fatalf("%s: after the panic, %d inflight, %d admission slots held", body, n, slots)
		}
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, "boom") || len(logged) != 0 {
			t.Errorf("logged %q and %d more lines; want the one panic that was not an abort", line, len(logged))
		}
	case <-time.After(2 * time.Second):
		t.Error("the panic was not logged")
	}
	// Past the panicked calls' deadlines: a timer left armed would write
	// its 503 onto a session that has ended.
	time.Sleep(60 * time.Millisecond)
	rs, _ := dialSession(t, ts.URL)
	if a := rs.call(&wire.Call{Op: wire.OpLookup, Request: []byte("fine")}); a.Status != http.StatusOK || string(a.Body) != "ok" {
		t.Fatalf("a call after the panics answered %d %q", a.Status, a.Body)
	}
}
