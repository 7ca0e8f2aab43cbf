package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"softreputation/internal/resilience"
	"softreputation/internal/wire"
)

// Binary calls ride framed sessions (wire/session.go): a connection
// opened once with POST /api/session and an Upgrade, then one call frame
// out and one answer frame back at a time. Each endpoint keeps a pool of
// idle sessions; a call takes one, or opens one, and gives it back only
// when its answer was read whole and does not say the server closes it.

// maxIdleSessions bounds an endpoint's idle sessions, as the transport's
// MaxIdleConnsPerHost bounds its idle connections.
const maxIdleSessions = 16

// maxPooledBuffer bounds the buffer an idle session keeps.
const maxPooledBuffer = 256 << 10

// session is one open session, held by one call at a time.
type session struct {
	base   string             // the endpoint
	rwc    io.ReadWriteCloser // the 101 response's body: the connection
	br     *bufio.Reader
	buf    []byte // the call frame, then the answer's payload
	reused bool   // it has answered a call before this one
}

// callFramed performs one call of the operation at path, its request
// frame out and resp filled from the answer's frames, on a session to
// base. A reused session that fails before any answer byte arrives was
// closed by the server while idle, and the call is sent once more on a
// new one: net/http's rule for a stale keep-alive connection.
func (a *API) callFramed(ctx context.Context, base, path string, frame []byte, resp interface{}) error {
	for fresh := false; ; fresh = true {
		ss, err := a.takeSession(ctx, base, fresh)
		if err != nil {
			return err
		}
		answered, err := a.exchange(ctx, ss, path, frame, resp)
		if answered || !ss.reused || ctx.Err() != nil || fresh {
			return err
		}
	}
}

// takeSession returns an idle session to base or, with fresh or none
// idle, opens one.
func (a *API) takeSession(ctx context.Context, base string, fresh bool) (*session, error) {
	if !fresh {
		a.protoMu.Lock()
		idle := a.idle[base]
		if n := len(idle); n > 0 {
			ss := idle[n-1]
			idle[n-1] = nil
			a.idle[base] = idle[:n-1]
			a.protoMu.Unlock()
			return ss, nil
		}
		a.protoMu.Unlock()
	}
	return a.openSession(ctx, base)
}

// putSession pools ss for its endpoint's next call, or closes it if the
// pool is full.
func (a *API) putSession(ss *session) {
	ss.reused = true
	if cap(ss.buf) > maxPooledBuffer {
		ss.buf = nil // one big answer must not pin memory
	}
	a.protoMu.Lock()
	if a.idle == nil {
		a.idle = make(map[string][]*session)
	}
	if idle := a.idle[ss.base]; len(idle) < maxIdleSessions {
		a.idle[ss.base] = append(idle, ss)
		ss = nil
	}
	a.protoMu.Unlock()
	if ss != nil {
		_ = ss.rwc.Close()
	}
}

// openSession asks base for a session through the RoundTripper of the
// client's transport, so that its dialer, proxy and any wrapper apply,
// but not http.Client.Timeout, whose timer would cut the session: a
// call's deadline is its context's. The upgrade declares the binary
// codec, so a refusal comes back as a frame, as a binary request's would,
// and carries the request id of the call it opens for, so that the
// server's trace joins it to that call. An answer that is neither a
// refusal nor a writable 101 is a *resilience.HTTPStatusError not in
// frames, which disposition reads as no frames here.
func (a *API) openSession(ctx context.Context, base string) (*session, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+wire.PathSession, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", wire.PathSession, err)
	}
	req.Header["User-Agent"] = nil
	req.Header.Set("Content-Type", wire.BinaryContentType)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.SessionUpgrade)
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
	if rwc, ok := httpResp.Body.(io.ReadWriteCloser); ok && httpResp.StatusCode == http.StatusSwitchingProtocols {
		return &session{base: base, rwc: rwc, br: bufio.NewReader(rwc)}, nil
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode < 300 {
		return nil, &resilience.HTTPStatusError{Status: httpResp.StatusCode,
			Err: fmt.Errorf("client: %s: %s without a writable connection", wire.PathSession, httpResp.Status)}
	}
	return nil, statusError(wire.PathSession, httpResp)
}

// errAnswerID is an answer to a call other than the one the session sent.
var errAnswerID = errors.New("answer for another request")

// exchange sends one call on ss and reads its answer, reporting whether
// any byte of the answer arrived. ss goes back to the pool only after an
// answer read whole and decoded that does not close it; after anything
// else (a cancelled or expired context among them) the next call would
// read the rest of this one's answer, so ss is closed.
func (a *API) exchange(ctx context.Context, ss *session, path string, frame []byte, resp interface{}) (answered bool, err error) {
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
		Priority: []byte(priority), Epoch: a.failover.Epoch(), Request: frame})
	if _, err := ss.rwc.Write(ss.buf); err != nil {
		return false, err
	}
	if _, err := ss.br.Peek(1); err != nil {
		return false, err
	}
	if ss.buf, err = wire.ReadBinaryFrameInto(ss.br, ss.buf, maxFramesBytes); err != nil {
		return true, err
	}
	if err := ans.Read(ss.buf); err != nil {
		return true, err
	}
	if string(ans.RequestID) != id {
		return true, fmt.Errorf("%w %q", errAnswerID, ans.RequestID)
	}
	if a.failover != nil {
		a.failover.ObserveEpoch(ans.Epoch)
	}
	if ans.Status/100 == 2 {
		return true, readFrames(ans.Body, resp)
	}
	return true, nil
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
