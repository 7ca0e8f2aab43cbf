// Sessions (wire/session.go): POST /api/session with Upgrade:
// reputation-session (binary) or reputation-session-xml turns a
// connection into call and answer frames in that codec. Each call runs as
// the request it stands for, one reused http.Request filled with its
// operation's path and headers, its codec's Content-Type among them,
// through the http.Server's whole handler chain: serve's refusals,
// admission, deadline, telemetry and /trace treat it as they treat that
// request over HTTP. What a session saves is net/http's request and
// response heads.
package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"softreputation/internal/frame"
	"softreputation/internal/wire"
)

// sessionSwitch is the 101 that hands the connection to the session, its
// Upgrade the accepted token.
const sessionSwitch = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "

// handleSession serves POST /api/session: it takes the connection over
// from net/http and serves its calls from a goroutine of its own, so that
// this request, its admission ticket and its deadline end here. The calls
// run through the http.Server's handler, so a server without one (or
// without an http.Server) cannot carry a session.
func (s *Server) handleSession(sc *scope, r *http.Request) {
	if !sc.requireMethod(r, http.MethodPost) {
		return
	}
	token, contentType := wire.SessionUpgrade, binaryContentType
	switch up := r.Header.Get("Upgrade"); {
	case strings.EqualFold(up, wire.SessionUpgradeXML):
		token, contentType = wire.SessionUpgradeXML, xmlContentType
	case !strings.EqualFold(up, wire.SessionUpgrade):
		sc.fail(http.StatusBadRequest, badRequest(errors.New("session: Upgrade: "+wire.SessionUpgrade+" or "+wire.SessionUpgradeXML+" required")))
		return
	}
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	var conn net.Conn
	var brw *bufio.ReadWriter
	err := errors.ErrUnsupported
	if hs != nil && hs.Handler != nil {
		conn, brw, err = http.NewResponseController(sc.w).Hijack()
	}
	if err != nil {
		sc.fail(http.StatusUnsupportedMediaType, &wire.ErrorResponse{Code: wire.CodeUnsupportedMedia, Message: "this connection cannot carry a session"})
		return
	}
	sc.WriteHeader(http.StatusSwitchingProtocols) // flush leaves the connection alone
	own, _ := hs.Handler.(*chain)
	fs := &framedSession{s: s, hs: hs, conn: conn, br: brw.Reader, contentType: contentType,
		own: own != nil && own.s == s, header: make(http.Header), done: make(chan struct{})}
	// The calls' context holds what net/http's requests carry, not this
	// request's: its scope, and the context armed in it, go back to the
	// pool when this handler returns. It holds the session too, for serve
	// to read each call's request id from its frame.
	ctx := context.WithValue(context.Background(), http.ServerContextKey, hs)
	ctx = context.WithValue(ctx, http.LocalAddrContextKey, conn.LocalAddr())
	ctx = context.WithValue(ctx, sessionKey{}, fs)
	fs.req = *(&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: make(http.Header),
		Host: r.Host, RemoteAddr: r.RemoteAddr}).WithContext(ctx)
	fs.armWrite()
	head := sessionSwitch + token + "\r\n"
	if idle := cmp.Or(hs.IdleTimeout, hs.ReadTimeout); idle > 0 { // run's idle deadline
		head += wire.HeaderSessionIdle + ": " + strconv.FormatInt(idle.Milliseconds(), 10) + "\r\n"
	}
	if _, err := io.WriteString(conn, head+"\r\n"); err != nil {
		_ = conn.Close()
		return
	}
	s.framedMu.Lock()
	s.framed[fs] = struct{}{}
	s.framedMu.Unlock()
	go fs.run()
}

// sessionKey is the context key of a call's session.
type sessionKey struct{}

// framedSession is one session's connection and what its calls reuse. It
// is the handler chain's ResponseWriter for each call; the answer leaves
// after the chain returns or, for scope.expire's, at its Flush.
type framedSession struct {
	s    *Server
	hs   *http.Server // its Handler serves the calls, its timeouts bound them
	own  bool         // that Handler is s's own chain: no header carries the request id
	conn net.Conn
	br   *bufio.Reader // the hijacked connection's
	done chan struct{} // closed when the session ends

	contentType         []string     // the codec's, for each call's request
	in                  []byte       // the call frame's payload
	call                wire.Call    // read in place from in
	req                 http.Request // filled for each call
	url                 url.URL
	body                callBody
	id, priority, epoch [1]string // header values, made when they change

	header http.Header // the answer's, as the chain wrote it
	status int
	out    []byte // the answer's body
	ans    []byte // the answer frame

	mu      sync.Mutex // sent, closing and the connection's writes
	sent    bool       // this call's answer left
	closing bool       // the session ends after this answer
}

// callBody is a call's request frame as its request's body.
type callBody struct{ bytes.Reader }

func (*callBody) Close() error { return nil }

// run serves calls until the connection ends, a frame's length cannot be
// trusted, an answer says Close, the server drains, or a handler panics.
// Before each call it arms the idle deadline, and once the call's first
// byte has arrived, ReadTimeout for the rest of it, as net/http arms them
// around a request; SetDraining wakes an idle session by expiring it.
func (fs *framedSession) run() {
	s := fs.s
	defer func() {
		// A panic ends the session, as net/http ends a connection whose
		// handler panicked, and says so as net/http does.
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			logf := log.Printf
			if fs.hs.ErrorLog != nil {
				logf = fs.hs.ErrorLog.Printf
			}
			logf("http: panic serving session %v: %v\n%s", fs.req.RemoteAddr, p, buf)
		}
		s.framedMu.Lock()
		delete(s.framed, fs)
		s.framedMu.Unlock()
		_ = fs.conn.Close()
		close(fs.done)
	}()
	// net/http's rule for a keep-alive connection between requests.
	idle, read := cmp.Or(fs.hs.IdleTimeout, fs.hs.ReadTimeout), fs.hs.ReadTimeout
	for !fs.closing {
		if idle > 0 {
			_ = fs.conn.SetReadDeadline(time.Now().Add(idle))
		}
		if s.Draining() {
			return
		}
		if _, err := fs.br.Peek(1); err != nil {
			return
		}
		if idle > 0 { // as it is whenever read is
			var deadline time.Time
			if read > 0 {
				deadline = time.Now().Add(read)
			}
			_ = fs.conn.SetReadDeadline(deadline)
		}
		payload, err := wire.ReadBinaryFrameInto(fs.br, fs.in, wire.MaxBinaryFrame)
		switch {
		case errors.Is(err, frame.ErrCRC): // the frame ended where it said
			fs.call = wire.Call{}
			fs.refuseFrame(err)
			continue
		case err != nil:
			return
		}
		fs.in = payload[:0]
		if err := fs.call.Read(payload); err != nil {
			fs.refuseFrame(err)
		} else {
			fs.serveCall()
		}
		if max(cap(fs.in), cap(fs.out), cap(fs.ans)) > maxPooledBuffer {
			fs.in, fs.out, fs.ans = nil, nil, nil // one big call must not pin memory
		}
	}
}

// serveCall runs the call just read through the handler chain as the
// request HTTP would have carried, and sends the answer.
func (fs *framedSession) serveCall() {
	c, h := &fs.call, fs.req.Header
	clear(h)
	h["Content-Type"] = fs.contentType
	set := func(key string, slot *[1]string, v []byte) {
		if len(v) > 0 {
			if string(v) != slot[0] {
				slot[0] = string(v)
			}
			h[key] = slot[:]
		}
	}
	if !fs.own { // for a handler in front of serve; serve reads the frame's
		set(wire.HeaderRequestID, &fs.id, c.RequestID)
	}
	set(wire.HeaderPriority, &fs.priority, c.Priority)
	if c.Epoch > 0 {
		var num [20]byte
		set(wire.HeaderEpoch, &fs.epoch, strconv.AppendUint(num[:0], c.Epoch, 10))
	}
	// A wrapper in the chain may have replaced what the last call carried.
	fs.url.Path = wire.OpPath(c.Op)
	fs.body.Reset(c.Request)
	fs.req.Method, fs.req.URL, fs.req.RequestURI = http.MethodPost, &fs.url, fs.url.Path
	fs.req.Body, fs.req.ContentLength = &fs.body, int64(len(c.Request))
	fs.begin()
	fs.hs.Handler.ServeHTTP(fs, &fs.req)
	fs.Flush()
}

// refuseFrame answers a call frame the session cannot read 400 in the
// session's codec, as HTTP answers a malformed body: the frame's boundary
// held, so the session goes on.
func (fs *framedSession) refuseFrame(err error) {
	fs.s.tel.binaryMalformed()
	fs.begin()
	fs.status = http.StatusBadRequest
	if fs.contentType[0] == wire.ContentType {
		_ = wire.Encode(fs, badRequest(err))
	} else {
		fs.out = append(fs.out, wire.EncodeBinaryError(badRequest(err))...)
	}
	fs.Flush()
}

// begin clears the answer for the next call.
func (fs *framedSession) begin() {
	clear(fs.header)
	fs.status, fs.out, fs.sent = 0, fs.out[:0], false
}

func (fs *framedSession) Header() http.Header { return fs.header }

func (fs *framedSession) WriteHeader(code int) {
	if fs.status == 0 {
		fs.status = code
	}
}

func (fs *framedSession) Write(p []byte) (int, error) {
	fs.WriteHeader(http.StatusOK)
	fs.out = append(fs.out, p...)
	return len(p), nil
}

// Flush sends the call's answer in one Write, once: scope.expire's from
// its timer while the handler still runs, every other after the chain
// returns. A time-out's answer (Connection: close) and a draining
// server's end the session, as they end an HTTP connection. The fencing
// pair is the server's, read here as HTTP's is at scope.flush, so that a
// refused frame's answer and a wrapped writer's carry it too.
func (fs *framedSession) Flush() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.sent {
		return
	}
	fs.sent = true
	var retryAfter uint64
	if v := fs.header.Get("Retry-After"); v != "" { // an empty value's error would allocate
		retryAfter, _ = strconv.ParseUint(v, 10, 64)
	}
	a := wire.Answer{Status: cmp.Or(fs.status, http.StatusOK), RetryAfter: retryAfter,
		Epoch: fs.s.Epoch(), AckSeq: fs.s.store.Seq(), RequestID: fs.call.RequestID,
		Close: fs.header.Get("Connection") == "close" || fs.s.Draining(), Body: fs.out}
	fs.ans = wire.AppendAnswer(fs.ans[:0], &a)
	fs.armWrite()
	_, err := fs.conn.Write(fs.ans)
	if fs.closing = a.Close || err != nil; fs.closing {
		_ = fs.conn.Close() // at once: the handler of a time-out may run on
	}
}

// armWrite arms the http.Server's WriteTimeout for one write.
func (fs *framedSession) armWrite() {
	if fs.hs.WriteTimeout > 0 {
		_ = fs.conn.SetWriteDeadline(time.Now().Add(fs.hs.WriteTimeout))
	}
}

// WaitSessions waits until the sessions open when it is called have
// closed, or ctx ends. http.Server.Shutdown does not know them; a
// draining server's close once they have answered their in-flight call.
func (s *Server) WaitSessions(ctx context.Context) error {
	s.framedMu.Lock()
	open := make([]chan struct{}, 0, len(s.framed))
	for fs := range s.framed {
		open = append(open, fs.done)
	}
	s.framedMu.Unlock()
	for _, done := range open {
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// wakeFramed expires the read of every session, so that an idle one sees
// the drain at once and a busy one at its next read.
func (s *Server) wakeFramed() {
	s.framedMu.Lock()
	defer s.framedMu.Unlock()
	for fs := range s.framed {
		_ = fs.conn.SetReadDeadline(time.Now())
	}
}
