package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"softreputation/internal/resilience"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// The request path: every API method is one invoke, invoke is its stages
// in order, and send is the one function that reaches http.Client.Do.
// DESIGN.md "Request path (client)" prints the stage list and the
// disposition table.

// maxResponseBytes bounds how much of a response body the client will
// read, mirroring the server's 1 MiB request cap: a confused or
// malicious server must not be able to balloon client memory.
const maxResponseBytes = 1 << 20

// reqBuffers pools request-encode buffers across calls; the lookup
// path encodes one document per decision, and the buffer's growth
// should be paid once, not per request.
var reqBuffers = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// encodeXML renders req as the paper's XML document; no request document
// is no body, which makes the call a GET.
func encodeXML(req interface{}) ([]byte, error) {
	if req == nil {
		return nil, nil
	}
	buf := reqBuffers.Get().(*bytes.Buffer)
	defer reqBuffers.Put(buf)
	buf.Reset()
	if err := wire.Encode(buf, req); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// op is one operation of the protocol as invoke needs it. The path also
// declares the endpoint discipline (wire.WritePath): a write must land on
// the primary, a read is served by any endpoint, replicas included.
type op struct {
	path string
	// frames says the binary protocol has frames for the operation's
	// request and response (encodeFrame, readFrames).
	frames bool
	// xml, when set, is what the operation does on an endpoint that takes
	// no frames, in place of posting one document: the batch has none.
	xml func(a *API, ctx context.Context, base string, req, resp interface{}) error
}

// action is what the client does with one attempt's answer.
type action int

const (
	// actFinal: a success, or an application error every endpoint would repeat.
	actFinal action = iota
	// actRetryHere: a 429. The endpoint is alive and shedding, so the sweep
	// ends here and the executor backs off, honouring Retry-After.
	actRetryHere
	// actSweepOn: no answer or a 5xx. The next endpoint may serve it.
	actSweepOn
	// actRedirect: a replica's redirect. A write follows it to the primary.
	actRedirect
	// actResendXML: no frames here. Pin the endpoint and send the document.
	actResendXML
)

// verdict is one attempt's action, with the primary a redirect names.
type verdict struct {
	act     action
	primary string
}

// disposition reads one attempt's answer, once, for the failover sweep,
// the redirect follower and the format negotiation: the client-side
// mirror of the server's refusal table (what earns another executor
// attempt or trips the breaker stays resilience.Retryable's and IsShed's
// reading of the same status). Only a request sent as a frame can be told
// "no frames here", and only by an answer that is not itself a frame: 415
// from a server that refuses the media type, 400/404/405 from a
// pre-binary one. The same statuses inside a frame are the application's.
func disposition(err error, sentBinary bool) verdict {
	if err == nil {
		return verdict{act: actFinal}
	}
	var se *resilience.HTTPStatusError
	if !errors.As(err, &se) {
		return verdict{act: actSweepOn} // no HTTP status at all: transport failure
	}
	var werr *wire.ErrorResponse
	if errors.As(se.Err, &werr) && werr.Code == wire.CodeRedirect {
		return verdict{act: actRedirect, primary: werr.Primary}
	}
	switch {
	case se.Status >= 500:
		return verdict{act: actSweepOn}
	case se.Status == http.StatusTooManyRequests:
		return verdict{act: actRetryHere}
	case sentBinary && !se.Binary:
		switch se.Status {
		case http.StatusUnsupportedMediaType, http.StatusBadRequest,
			http.StatusNotFound, http.StatusMethodNotAllowed:
			return verdict{act: actResendXML}
		}
	}
	return verdict{act: actFinal}
}

// invoke runs one logical call of o, req out and resp filled, through the
// client's stages in order.
func (a *API) invoke(ctx context.Context, o op, req, resp interface{}) error {
	// 1. Request id, minted outside the executor when the caller brought
	// none, so that every attempt of the call carries the same one.
	if requestIDFrom(ctx) == "" {
		ctx = WithRequestID(ctx, telemetry.NewRequestID())
	}
	// Each format's body is encoded when an endpoint first needs it, once
	// for all attempts and endpoints of the call.
	var frame, doc []byte

	// 2. Retry policy and circuit breaker; a nil executor attempts once.
	return a.exec.Do(ctx, func(ctx context.Context) error {
		// 3. Failover sweep, inside one executor attempt so that switching
		// servers costs no backoff. The path says read or write; without a
		// tier there is the one endpoint.
		return a.failover.sweep(ctx, a.base, wire.WritePath(o.path), func(base string) (verdict, error) {
			// 4. Format, learned per endpoint: frames until the endpoint
			// turns them down, then XML, re-sent at once, so a mixed-version
			// tier is spoken to in the best protocol each member has.
			if o.frames && a.useBinary(base) {
				if frame == nil {
					frame = encodeFrame(req)
				}
				err := a.send(ctx, base, o.path, true, frame, resp) // 5.
				if v := disposition(err, true); v.act != actResendXML {
					return v, err
				}
				a.pinXMLOnly(base)
			}
			var err error
			if o.xml != nil {
				err = o.xml(a, ctx, base, req, resp)
			} else {
				if doc == nil {
					doc, err = encodeXML(req)
				}
				if err == nil {
					err = a.send(ctx, base, o.path, false, doc, resp) // 5.
				}
			}
			return disposition(err, false), err
		})
	})
}

// send performs one HTTP attempt against base+path, in frames when binary
// and in XML otherwise: body is posted when non-nil (GET otherwise), and a
// 2xx response body is decoded into resp. Non-2xx statuses come back as
// *resilience.HTTPStatusError wrapping the decoded wire error — binary or
// XML, whichever the server sent — so disposition and the executor
// classify by status while errors.As still reaches the
// *wire.ErrorResponse underneath.
func (a *API) send(ctx context.Context, base, path string, binary bool, body []byte, resp interface{}) error {
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	contentType, limit := wire.ContentType, int64(maxResponseBytes)
	if binary {
		// Only the binary codec names the media type it wants back; the
		// paper's XML requests carry no Accept.
		contentType, limit = wire.BinaryContentType, maxFramesBytes
		req.Header.Set("Accept", contentType)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if p, ok := ctx.Value(priorityKey{}).(string); ok && p != "" {
		req.Header.Set(wire.HeaderPriority, p)
	}
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set(wire.HeaderRequestID, id)
	}
	if a.failover != nil {
		// Carry the highest epoch we have seen: a deposed primary fences
		// itself on the first request from any client that already spoke
		// to its successor.
		if e := a.failover.Epoch(); e > 0 {
			req.Header.Set(wire.HeaderEpoch, strconv.FormatUint(e, 10))
		}
	}
	httpResp, err := a.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	if a.failover != nil {
		if e, perr := strconv.ParseUint(httpResp.Header.Get(wire.HeaderEpoch), 10, 64); perr == nil {
			a.failover.ObserveEpoch(e)
		}
	}
	limited := io.LimitReader(httpResp.Body, limit)
	switch {
	case httpResp.StatusCode/100 != 2:
		inFrame := httpResp.Header.Get("Content-Type") == wire.BinaryContentType
		return &resilience.HTTPStatusError{
			Status:     httpResp.StatusCode,
			RetryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After")),
			Binary:     inFrame,
			Err:        decodeErrorBody(path, httpResp.Status, inFrame, limited),
		}
	case binary:
		err = readFrames(limited, resp)
	case resp != nil:
		err = wire.Decode(limited, resp)
	}
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	return nil
}

// decodeErrorBody extracts the wire error from a non-2xx response in
// whichever format the server used.
func decodeErrorBody(path, status string, binary bool, limited io.Reader) error {
	if binary {
		body, err := io.ReadAll(limited)
		if err == nil {
			if payload, _, ferr := wire.SplitBinaryFrame(body); ferr == nil {
				if werr, derr := wire.DecodeBinaryError(payload); derr == nil {
					return werr
				}
			}
		}
	} else {
		var werr wire.ErrorResponse
		if err := wire.Decode(limited, &werr); err == nil {
			return &werr
		}
	}
	return fmt.Errorf("client: %s: status %s", path, status)
}

// parseRetryAfter reads a Retry-After header's delay-seconds form.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
