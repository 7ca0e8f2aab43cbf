package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"softreputation/internal/repcache"
	"softreputation/internal/wire"
)

const (
	maxRequestBody  = 1 << 20   // a larger request body is answered 400
	maxPooledBuffer = 256 << 10 // a larger buffer is not pooled: one snapshot or big batch must not pin memory
	maxTraceDetail  = 160       // how much of an error body a trace event keeps
	maxPooledFeeds  = 1024      // a scratch that held a longer feed list is not pooled either
)

// Constant header values are shared and assigned, not Set.
var (
	xmlContentType    = []string{wire.ContentType}
	binaryContentType = []string{wire.BinaryContentType}
)

// scope is one request's state in serve and the handler's
// ResponseWriter (DESIGN.md, Request path). The handler fills header and
// out; nothing reaches the real writer before flush. An armed deadline
// brings a second goroutine, expire, which touches none of header,
// status, out and in. mu decides who answers on the real writer: flush
// and expire each do so only if the other has not.
type scope struct {
	s      *Server
	w      http.ResponseWriter // the real writer
	reqID  []string            // request id header value, echoed on the response
	callID []byte              // or a session call's, its frame's bytes (the answer echoes them)
	bin    bool                // the request is a binary frame and this server speaks binary: errors go back as frames

	header http.Header
	status int
	out    bytes.Buffer     // response body
	length [1]string        // out's Content-Length when a cache entry holds it (sendReport), or ""
	in     bytes.Buffer     // format prefix and request body, see readBody
	limit  io.LimitedReader // readBody's cap, a field so that it is not allocated
	rep    reportScratch    // where a cache miss builds its report
	vote   wire.VoteView    // a vote, read in place

	mu       sync.Mutex
	finished bool        // handler returned or panicked: expire must do nothing
	late     *scope      // expire's answer, once sent: the handler's output is discarded
	stale    bool        // an expire call may still be on its way
	timer    *time.Timer // runs expire; kept across reuse
	armed    armed       // what arm hands the handler; zeroed by recycle
}

var scopes = sync.Pool{New: func() interface{} { return &scope{header: make(http.Header)} }}

func (sc *scope) Header() http.Header { return sc.header }

func (sc *scope) WriteHeader(code int) {
	if sc.status == 0 {
		sc.status = code
	}
}

func (sc *scope) Write(p []byte) (int, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.late != nil {
		return 0, http.ErrHandlerTimeout
	}
	sc.WriteHeader(http.StatusOK)
	return sc.out.Write(p)
}

// contentLengths are the Content-Length values of bodies under 1 KiB,
// rendered once, for flush to share.
var contentLengths = func() (t [1 << 10][1]string) {
	for n := range t {
		t[n][0] = strconv.Itoa(n)
	}
	return t
}()

// cacheFormat is the report-cache namespace of a wire format, by scope.bin.
var cacheFormat = map[bool]string{false: repcache.FormatXML, true: repcache.FormatBinary}

// readBody reads the request body into the scope's buffer behind its
// format prefix: the whole buffer is a lookup's cache key as it stands,
// and what outlives the request (the key of a new entry) must be a copy.
func (sc *scope) readBody(r *http.Request) ([]byte, error) {
	sc.limit = io.LimitedReader{R: r.Body, N: maxRequestBody + 1}
	sc.in.Reset()
	format := cacheFormat[sc.bin]
	sc.in.WriteString(format)
	_, err := sc.in.ReadFrom(&sc.limit)
	body := sc.in.Bytes()[len(format):]
	if err == nil && len(body) > maxRequestBody {
		err = &http.MaxBytesError{Limit: maxRequestBody}
	}
	if err == nil {
		_ = r.Body.Close() // read whole: net/http has nothing left to discard
	}
	return body, err
}

// arm starts the deadline: after d, expire answers in the handler's
// place and cancels the context of the request arm returns. The request
// and its context are the scope's (armed), so they cost no allocation;
// recycle does not pool a scope whose context was observed (Done or Err),
// so a context a handler kept is never another request's.
func (sc *scope) arm(r *http.Request, d time.Duration) *http.Request {
	a := &sc.armed
	a.ctx.Context = r.Context()
	a.req = *r.WithContext(&a.ctx) // inlined: the copy it makes stays on the stack
	if sc.timer == nil {
		sc.timer = time.AfterFunc(d, sc.expire)
	} else {
		sc.timer.Reset(d)
	}
	return &a.req
}

// armed is the request copy the handler gets and the context it carries.
type armed struct {
	req http.Request
	ctx deadlineCtx
}

// deadlineCtx is the request's own context, cancelled as well when the
// deadline expires or the handler ends. It is lazy: the cancellable
// context under it is made when the handler first asks for Done or Err,
// so a handler that never does (no handler of this server does) costs
// nothing — not the context, its registration with net/http's, nor that
// one's channel — and leaves its scope to be pooled.
type deadlineCtx struct {
	context.Context
	mu     sync.Mutex
	inner  context.Context
	cancel context.CancelFunc
	over   bool // stop came first
}

func (c *deadlineCtx) lazy() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inner == nil {
		c.inner, c.cancel = context.WithCancel(c.Context)
		if c.over {
			c.cancel()
		}
	}
	return c.inner
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.lazy().Done() }
func (c *deadlineCtx) Err() error            { return c.lazy().Err() }

// observed reports whether the handler asked for Done or Err.
func (c *deadlineCtx) observed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner != nil
}

// stop cancels the context.
func (c *deadlineCtx) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.over = true
	if c.cancel != nil {
		c.cancel()
	}
}

// end marks the handler finished, ends an armed deadline, and reports
// whether expire answered. Deferred too: no 503 may follow a panic.
func (sc *scope) end() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.finished && sc.armed.ctx.Context != nil { // armed
		sc.stale = !sc.timer.Stop()
		sc.armed.ctx.stop()
	}
	sc.finished = true
	return sc.late != nil
}

// expire is the timer's side. If the handler has not finished, it sends
// the time-out refusal through a scope of its own and flushes it, since
// the handler still holds the connection's goroutine; Connection: close
// keeps the client from queueing behind a handler that may never return.
func (sc *scope) expire() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.finished {
		return
	}
	t := scopes.Get().(*scope)
	t.s, t.w, t.reqID, t.bin = sc.s, sc.w, sc.reqID, sc.bin
	sc.late = t
	t.header.Set("Connection", "close")
	t.fail(http.StatusServiceUnavailable, &wire.ErrorResponse{Code: wire.CodeUnavailable, Message: "request timed out"})
	t.flush()
	_ = http.NewResponseController(sc.w).Flush() // or, if it cannot, when serve returns
	sc.armed.ctx.stop()
}

// fail answers status with the error document e, in the request's
// codec. Every non-2xx answer of the gate, the handlers and the deadline
// passes through here, the one place an error document is encoded. The
// status tells the client what to do: 503 means fail over now; 429 means
// the server is alive but shedding, back off and retry here; both carry
// the jittered Retry-After.
func (sc *scope) fail(status int, e *wire.ErrorResponse) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		sc.header.Set("Retry-After", retryAfterSeconds(shedRetryAfter))
	}
	sc.WriteHeader(status)
	if sc.bin {
		sc.header["Content-Type"] = binaryContentType
		_, _ = sc.Write(wire.EncodeBinaryError(e))
		return
	}
	sc.header["Content-Type"] = xmlContentType
	_ = wire.Encode(sc, e) // it fails only after a time-out, for no one to see
}

// failErr answers a handler's error: the domain mapping, or the gate's
// own answer for a write that the store refused after the gate had let
// it through.
func (sc *scope) failErr(err error) {
	if ref := refusalFor(false, err, true, false); ref.status != 0 {
		sc.fail(ref.status, sc.s.refusalDoc(ref))
		return
	}
	code, status := errorCodeStatus(err)
	sc.fail(status, &wire.ErrorResponse{Code: code, Message: err.Error()})
}

// flush sends the response on the real writer, headers stamped, in one
// Write, unless expire answered: then the output is discarded. After a
// 101 the connection is a session's (handleSession).
func (sc *scope) flush() {
	if sc.end() || sc.status == http.StatusSwitchingProtocols {
		return
	}
	dst := sc.w.Header()
	for k, v := range sc.header {
		dst[k] = v
	}
	if sc.reqID != nil {
		dst[wire.HeaderRequestID] = sc.reqID
	}
	if !sc.framed() { // a session's answer carries the pair as numbers, and no length
		pos := sc.s.fencePosition()
		dst[wire.HeaderEpoch], dst[wire.HeaderAckSeq] = pos.epochValue, pos.seqValue
		switch n := sc.out.Len(); {
		case sc.length[0] != "": // a cached report's; net/http copies it at WriteHeader
			dst["Content-Length"] = sc.length[:]
		case n < len(contentLengths):
			dst["Content-Length"] = contentLengths[n][:]
		default:
			dst["Content-Length"] = []string{strconv.Itoa(n)}
		}
	}
	sc.WriteHeader(http.StatusOK)
	sc.w.WriteHeader(sc.status)
	_, _ = sc.w.Write(sc.out.Bytes()) // it fails when the client is gone: no one to tell
}

// framed reports whether the real writer is a session's (framedSession.Flush).
func (sc *scope) framed() bool {
	_, ok := sc.w.(*framedSession)
	return ok
}

// requestID is the request's id for /trace, made a string only here.
func (sc *scope) requestID() string {
	if sc.callID != nil {
		return string(sc.callID)
	}
	return sc.reqID[0]
}

// outcome is what serve observes after flush: the status the client saw
// and, for an error that is not a binary frame, the head of its body.
func (sc *scope) outcome() (status int, detail string) {
	if sc.late != nil {
		return sc.late.outcome()
	}
	if status = sc.status; status >= 400 && sc.header.Get("Content-Type") != wire.BinaryContentType {
		detail = string(sc.out.Bytes()[:min(sc.out.Len(), maxTraceDetail)])
	}
	return status, detail
}

// recycle clears the scope for its next request and reports whether it
// may have one: not after a time-out (what made the handler late may
// still hold the writer), not while its timer may still fire, not when
// the handler observed its context (it may have kept it).
func (sc *scope) recycle() bool {
	if sc.late != nil || sc.stale || sc.armed.ctx.observed() {
		return false
	}
	clear(sc.header)
	sc.s, sc.w, sc.reqID, sc.callID, sc.limit.R, sc.armed, sc.length = nil, nil, nil, nil, nil, armed{}, [1]string{}
	sc.status, sc.finished, sc.bin = 0, false, false
	rs := &sc.rep
	if max(sc.out.Cap(), sc.in.Cap(), cap(rs.enc), cap(rs.view.Unescaped), cap(sc.vote.Unescaped)) > maxPooledBuffer ||
		cap(rs.view.Feeds)+cap(rs.feeds) > maxPooledFeeds {
		sc.out, sc.in, sc.rep, sc.vote = bytes.Buffer{}, bytes.Buffer{}, reportScratch{}, wire.VoteView{}
	}
	sc.out.Reset()
	sc.in.Reset()
	return true
}
