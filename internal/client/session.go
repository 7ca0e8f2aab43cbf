package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"softreputation/internal/resilience"
	"softreputation/internal/wire"
)

// Lookups and votes ride framed sessions (wire/session.go): a connection
// opened once with POST /api/session and an Upgrade naming the codec,
// then one call frame out and one answer frame back at a time. Each
// endpoint keeps a pool of idle sessions a codec; a call takes one, or
// opens one, and gives it back only when its answer was read whole and
// does not say the server closes it.

// maxIdleSessions bounds an endpoint's idle sessions, as the transport's
// MaxIdleConnsPerHost bounds its idle connections.
const maxIdleSessions = 16

// maxPooledBuffer bounds the buffer an idle session keeps.
const maxPooledBuffer = 256 << 10

// sessionKey names a pool: the endpoint and the codec.
type sessionKey struct {
	base   string
	binary bool
}

// session is one open session, held by one call at a time.
type session struct {
	key    sessionKey
	rwc    io.ReadWriteCloser // the 101 response's body: the connection
	br     *bufio.Reader
	buf    []byte // the call frame, then the answer's payload
	reused bool   // it has answered a call before this one
	// idleAt is when the session was last pooled, and maxIdle how long it
	// may stay: three quarters of the idle timeout its 101 named (as 90 s
	// of reputationd's 2 minutes), 0 when the server names none.
	idleAt  time.Time
	maxIdle time.Duration
}

// errNoSession marks an upgrade's answer that says the endpoint carries no
// session: disposition's "no session here".
var errNoSession = errors.New("no session here")

// callFramed performs one call of the operation at path, its request body
// out and resp filled from the answer's, on a session to base in the
// binary codec or in XML. A reused session that fails before any answer
// byte arrives was likely closed by the server while idle, and the call
// is sent once more on a new one: a lookup always, a vote only when no
// byte of it was written, since the server may have committed it
// (net/http's rule for a stale keep-alive connection and a POST).
func (a *API) callFramed(ctx context.Context, base, path string, binary bool, body []byte, resp interface{}) error {
	key := sessionKey{base, binary}
	for fresh := false; ; fresh = true {
		ss, err := a.takeSession(ctx, key, fresh)
		if err != nil {
			return err
		}
		again, err := a.exchange(ctx, ss, path, body, resp)
		if !again || !ss.reused || ctx.Err() != nil || fresh {
			return err
		}
	}
}

// takeSession returns an idle session for key or, with fresh or none
// idle, opens one. An idle session near the end of the server's idle
// timeout is closed and skipped, so that no call is written on a session
// the server is closing.
func (a *API) takeSession(ctx context.Context, key sessionKey, fresh bool) (*session, error) {
	for !fresh {
		var ss *session
		a.protoMu.Lock()
		if idle := a.idle[key]; len(idle) > 0 {
			ss, idle[len(idle)-1], a.idle[key] = idle[len(idle)-1], nil, idle[:len(idle)-1]
		}
		a.protoMu.Unlock()
		if ss == nil {
			break
		}
		if ss.maxIdle == 0 || time.Since(ss.idleAt) < ss.maxIdle {
			return ss, nil
		}
		_ = ss.rwc.Close()
	}
	return a.openSession(ctx, key)
}

// putSession pools ss for its endpoint's next call, or closes it if the
// pool is full.
func (a *API) putSession(ss *session) {
	ss.reused, ss.idleAt = true, time.Now()
	if cap(ss.buf) > maxPooledBuffer {
		ss.buf = nil // one big answer must not pin memory
	}
	a.protoMu.Lock()
	if a.idle == nil {
		a.idle = make(map[sessionKey][]*session)
	}
	if idle := a.idle[ss.key]; len(idle) < maxIdleSessions {
		a.idle[ss.key] = append(idle, ss)
		ss = nil
	}
	a.protoMu.Unlock()
	if ss != nil {
		_ = ss.rwc.Close()
	}
}

// openSession asks key's endpoint for a session in key's codec through
// the RoundTripper of the client's transport, so that its dialer, proxy
// and any wrapper apply, but not http.Client.Timeout, whose timer would
// cut the session: a call's deadline is its context's. The upgrade
// declares the codec, so a refusal comes back in it, as a request's
// would, and carries the request id of the call it opens for, so that
// the server's trace joins it to that call. Any other answer is
// upgradeError's.
func (a *API) openSession(ctx context.Context, key sessionKey) (*session, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, key.base+wire.PathSession, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.PathSession, err)
	}
	contentType, token := wire.ContentType, wire.SessionUpgradeXML
	if key.binary {
		contentType, token = wire.BinaryContentType, wire.SessionUpgrade
	}
	req.Header["User-Agent"] = nil
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", token)
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set(wire.HeaderRequestID, id)
	}
	if e := a.failover.Epoch(); e > 0 {
		req.Header.Set(wire.HeaderEpoch, strconv.FormatUint(e, 10))
	}
	rt := a.http.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	httpResp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.PathSession, err)
	}
	a.observeEpoch(httpResp.Header.Get(wire.HeaderEpoch))
	rwc, ok := httpResp.Body.(io.ReadWriteCloser)
	if ok && httpResp.StatusCode == http.StatusSwitchingProtocols && strings.EqualFold(httpResp.Header.Get("Upgrade"), token) {
		ms, _ := strconv.ParseInt(httpResp.Header.Get(wire.HeaderSessionIdle), 10, 64)
		return &session{key: key, rwc: rwc, br: bufio.NewReader(rwc), maxIdle: time.Duration(ms) * time.Millisecond * 3 / 4}, nil
	}
	defer httpResp.Body.Close()
	se := &resilience.HTTPStatusError{Status: httpResp.StatusCode,
		Err: fmt.Errorf("client: %s: %s without a writable connection", wire.PathSession, httpResp.Status)}
	if httpResp.StatusCode >= 300 { // a 2xx's body may be the connection
		se = statusError(wire.PathSession, httpResp)
	}
	return nil, upgradeError(se)
}

// upgradeError is an upgrade's answer other than a session, marked
// errNoSession when it says the endpoint carries none: a 2xx (a 101
// among them), or a 400, 404, 405 or 415 not in a binary frame, what a
// server from before sessions, or before XML sessions, answers.
func upgradeError(se *resilience.HTTPStatusError) error {
	refusals := []int{http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusUnsupportedMediaType}
	if se.Status < 300 || !se.Binary && slices.Contains(refusals, se.Status) {
		return fmt.Errorf("%w: %w", errNoSession, se)
	}
	return se
}

// errAnswerID is an answer to a call other than the one the session sent.
var errAnswerID = errors.New("answer for another request")

// exchange sends one call on ss and reads its answer, reporting whether a
// failure may be sent again: nothing of the call was written, or a lookup
// got no answer byte. ss goes back to the pool only after an answer read
// whole and decoded that does not close it; after anything else (a
// cancelled or expired context among them) the next call would read the
// rest of this one's answer, so ss is closed.
func (a *API) exchange(ctx context.Context, ss *session, path string, body []byte, resp interface{}) (again bool, err error) {
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = ss.rwc.Close() })
	}
	var ans wire.Answer
	defer func() {
		open := stop() // false: the context ended, and closed ss under the call
		keep := open && !ans.Close && err == nil
		switch {
		case err != nil:
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			err = fmt.Errorf("client: %s: %w", path, err)
		case ans.Status/100 != 2:
			err = answerError(path, &ans)
		}
		// Only now, the error built: a non-2xx answer's body is in ss.buf,
		// which the session's next call overwrites.
		if keep {
			a.putSession(ss)
		} else {
			_ = ss.rwc.Close()
		}
	}()
	id := requestIDFrom(ctx)
	priority, _ := ctx.Value(priorityKey{}).(string)
	ss.buf = wire.AppendCall(ss.buf[:0], &wire.Call{Op: wire.PathOp(path), RequestID: []byte(id),
		Priority: []byte(priority), Epoch: a.failover.Epoch(), Request: body})
	if n, err := ss.rwc.Write(ss.buf); err != nil {
		return n == 0 || !wire.WritePath(path), err
	}
	if _, err := ss.br.Peek(1); err != nil {
		return !wire.WritePath(path), err
	}
	if ss.buf, err = wire.ReadBinaryFrameInto(ss.br, ss.buf, maxFramesBytes); err != nil {
		return false, err
	}
	if err := ans.Read(ss.buf); err != nil {
		return false, err
	}
	if string(ans.RequestID) != id {
		return false, fmt.Errorf("%w %q", errAnswerID, ans.RequestID)
	}
	if a.failover != nil {
		a.failover.ObserveEpoch(ans.Epoch)
	}
	switch {
	case ans.Status/100 != 2:
		return false, nil
	case ss.key.binary:
		return false, readFrames(ans.Body, resp)
	}
	return false, wire.DecodeXML(ans.Body, resp.(wire.Document))
}

// answerError is a non-2xx answer as the error an HTTP response with it
// would be: in frames, unless its body is not one error frame.
func answerError(path string, ans *wire.Answer) error {
	payload, rest, err := wire.SplitBinaryFrame(ans.Body)
	inFrame := err == nil && len(rest) == 0 && wire.BinaryFrameType(payload) == wire.BinFrameError
	return &resilience.HTTPStatusError{
		Status:     ans.Status,
		RetryAfter: time.Duration(ans.RetryAfter) * time.Second,
		Binary:     inFrame,
		Err:        decodeErrorBody(path, strconv.Itoa(ans.Status), inFrame, bytes.NewReader(ans.Body)),
	}
}
