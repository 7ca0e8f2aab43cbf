// Package client implements the reputation system's client side (§3.1):
// the API client speaking the XML protocol, the execution-decision
// engine behind the host's kernel hook with its white and black lists,
// signature-based auto-allowing (§4.2), policy enforcement, the
// rating-prompt throttle (ask only after 50 executions, at most two
// rating prompts per week), and the degraded-mode machinery that keeps
// hosts deciding when the server is slow, shedding load, or down.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/resilience"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// maxResponseBytes bounds how much of a response body the client will
// read, mirroring the server's 1 MiB request cap: a confused or
// malicious server must not be able to balloon client memory.
const maxResponseBytes = 1 << 20

// API is a client for the server's XML protocol. It is safe for
// concurrent use. Every method takes a context; cancelling it aborts
// the in-flight request and any pending retries.
type API struct {
	base     string
	http     *http.Client
	exec     *resilience.Executor
	failover *Failover

	// binary opts the client into the compact binary protocol; endpoints
	// that turn it down are pinned in xmlOnly (see binary.go).
	binary  bool
	protoMu sync.Mutex
	xmlOnly map[string]bool

	// batcher, when set, coalesces concurrent Lookup calls into batch
	// frames (see batcher.go).
	batcher atomic.Pointer[Batcher]
}

// NewAPI creates an API client for the server at baseURL. A nil
// httpClient selects the package's shared keep-alive-tuned client (see
// NewTransport); passing a client with a custom transport is how
// lookups are routed through the anonymity network (or a fault
// injector).
func NewAPI(baseURL string, httpClient *http.Client) *API {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	return &API{base: baseURL, http: httpClient}
}

// NewFailoverAPI creates an API client over a replicated server tier:
// reads are served by whichever endpoint answers (replicas included),
// writes follow the primary — by redirect document or health probe.
// The endpoint list order is the initial preference; the first entry is
// the presumed primary.
func NewFailoverAPI(endpoints []string, httpClient *http.Client) *API {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	a := &API{base: endpoints[0], http: httpClient}
	a.failover = newFailover(a, endpoints)
	return a
}

// Failover returns the endpoint selector, nil for single-endpoint
// clients.
func (a *API) Failover() *Failover { return a.failover }

// WithResilience wraps every call in the executor's retry policy and
// circuit breaker, returning the API for chaining. A nil executor
// restores direct single-attempt calls.
func (a *API) WithResilience(e *resilience.Executor) *API {
	a.exec = e
	return a
}

// Resilience returns the installed executor, nil when calls are direct.
func (a *API) Resilience() *resilience.Executor { return a.exec }

// priorityKey carries a request-priority header value on the context.
type priorityKey struct{}

// WithPriority returns a context whose API requests carry the given
// priority header value (wire.PriorityCritical, wire.PriorityBackground).
// The server's admission layer uses it to shed background traffic
// before a lookup holding a frozen critical process (§4.2). The value
// travels through retries and failover sweeps — it is a property of
// the logical request, not of one attempt.
func WithPriority(ctx context.Context, priority string) context.Context {
	return context.WithValue(ctx, priorityKey{}, priority)
}

// requestIDKey carries the logical call's request ID on the context.
type requestIDKey struct{}

// WithRequestID returns a context whose API requests carry the given
// request ID in the X-Reputation-Request-Id header. Without it, every
// logical call mints its own. Like the priority header, the ID is a
// property of the logical request: retries, failover sweeps, and
// redirect follow-ups all present the same ID, so the server-side
// traces of one decision join into one story.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestIDFrom returns the context's request ID, "" when absent.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// do runs fn under the resilience executor when one is installed. It
// is the logical-call boundary, so this is where a request ID is
// minted when the caller did not supply one — outside the executor,
// so every attempt of the call carries the same ID.
func (a *API) do(ctx context.Context, fn func(ctx context.Context) error) error {
	if requestIDFrom(ctx) == "" {
		ctx = WithRequestID(ctx, telemetry.NewRequestID())
	}
	if a.exec != nil {
		return a.exec.Do(ctx, fn)
	}
	return fn(ctx)
}

// send performs one HTTP attempt against base+path under either codec:
// body is posted as contentType when non-nil (GET otherwise), and a 2xx
// response body, capped at limit bytes, is handed to decode. Non-2xx
// statuses come back as *resilience.HTTPStatusError wrapping the
// decoded wire error — binary or XML, whichever the server sent — so
// retry and failover classify by status while errors.As still reaches
// the *wire.ErrorResponse underneath.
func (a *API) send(ctx context.Context, base, path, contentType string, body []byte, limit int64, decode func(io.Reader) error) error {
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
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if contentType == wire.BinaryContentType {
		// Only the binary codec names the media type it wants back; the
		// paper's XML requests carry no Accept.
		req.Header.Set("Accept", contentType)
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
	if httpResp.StatusCode/100 != 2 {
		return &resilience.HTTPStatusError{
			Status:     httpResp.StatusCode,
			RetryAfter: parseRetryAfter(httpResp.Header.Get("Retry-After")),
			Err:        decodeErrorBody(path, httpResp, limited),
		}
	}
	return decode(limited)
}

// roundTrip is send under the XML codec: the response document is
// decoded into resp when non-nil.
func (a *API) roundTrip(ctx context.Context, base, path string, body []byte, resp interface{}) error {
	return a.send(ctx, base, path, wire.ContentType, body, maxResponseBytes, func(r io.Reader) error {
		if resp == nil {
			return nil
		}
		if err := wire.Decode(r, resp); err != nil {
			return fmt.Errorf("client: %s: %w", path, err)
		}
		return nil
	})
}

// exchange runs one logical API call under the resilience executor and
// the failover sweep, handing each attempt's endpoint to op so it can
// pick that endpoint's protocol. write selects the endpoint discipline:
// writes must land on the primary (redirects are followed, health is
// probed), while reads are happily served by any endpoint, replicas
// included.
func (a *API) exchange(ctx context.Context, write bool, op func(ctx context.Context, base string) error) error {
	return a.do(ctx, func(ctx context.Context) error {
		if a.failover == nil {
			return op(ctx, a.base)
		}
		return a.failover.attempt(ctx, write, func(base string) error {
			return op(ctx, base)
		})
	})
}

// reqBuffers pools request-encode buffers across calls; the lookup
// path encodes one document per decision, and the buffer's growth
// should be paid once, not per request.
var reqBuffers = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

func encodeReq(req interface{}) ([]byte, error) {
	buf := reqBuffers.Get().(*bytes.Buffer)
	defer reqBuffers.Put(buf)
	buf.Reset()
	if err := wire.Encode(buf, req); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// exchangeXML is exchange for a call that only speaks XML: req, when
// non-nil, is POSTed as one document; a nil req makes it a GET.
func (a *API) exchangeXML(ctx context.Context, write bool, path string, req, resp interface{}) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = encodeReq(req); err != nil {
			return err
		}
	}
	return a.exchange(ctx, write, func(ctx context.Context, base string) error {
		return a.roundTrip(ctx, base, path, body, resp)
	})
}

// call POSTs req as XML to path and decodes the response into resp,
// retrying under the installed resilience policy. Write discipline:
// the request mutates server state (or per-server session state) and
// must reach the primary.
func (a *API) call(ctx context.Context, path string, req, resp interface{}) error {
	return a.exchangeXML(ctx, true, path, req, resp)
}

// callRead is call for read-only POST endpoints (lookup, vendor): any
// endpoint may answer, so reads survive a dead primary.
func (a *API) callRead(ctx context.Context, path string, req, resp interface{}) error {
	return a.exchangeXML(ctx, false, path, req, resp)
}

// get fetches one of the read-only GET endpoints.
func (a *API) get(ctx context.Context, path string, resp interface{}) error {
	return a.exchangeXML(ctx, false, path, nil, resp)
}

// getPrimary fetches a GET endpoint whose state lives on the primary
// (the registration challenge: its nonces must be redeemed where they
// were minted).
func (a *API) getPrimary(ctx context.Context, path string, resp interface{}) error {
	return a.exchangeXML(ctx, true, path, nil, resp)
}

// parseRetryAfter reads a Retry-After header's delay-seconds form.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Challenge fetches the registration challenge.
func (a *API) Challenge(ctx context.Context) (wire.ChallengeResponse, error) {
	var out wire.ChallengeResponse
	if err := a.getPrimary(ctx, wire.PathChallenge, &out); err != nil {
		return out, err
	}
	return out, nil
}

// Register submits a registration.
func (a *API) Register(ctx context.Context, req wire.RegisterRequest) error {
	return a.call(ctx, wire.PathRegister, req, &wire.RegisterResponse{})
}

// Activate redeems an activation token and returns the username.
func (a *API) Activate(ctx context.Context, token string) (string, error) {
	var resp wire.ActivateResponse
	if err := a.call(ctx, wire.PathActivate, wire.ActivateRequest{Token: token}, &resp); err != nil {
		return "", err
	}
	return resp.Username, nil
}

// Login opens a session and returns its token.
func (a *API) Login(ctx context.Context, username, password string) (string, error) {
	var resp wire.LoginResponse
	if err := a.call(ctx, wire.PathLogin, wire.LoginRequest{Username: username, Password: password}, &resp); err != nil {
		return "", err
	}
	return resp.Token, nil
}

// Report is the client-side view of a lookup response.
type Report struct {
	// Known reports whether the server had seen the executable before.
	Known bool
	// Score, Votes and Behaviors are the published aggregate.
	Score     float64
	Votes     int
	Behaviors core.Behavior
	// Vendor and its derived rating (§3.3).
	Vendor      string
	VendorScore float64
	VendorCount int
	// Comments are other users' comments.
	Comments []wire.CommentInfo
	// Advice holds subscribed expert feeds' entries (§4.2).
	Advice []Advice
}

// Advice is one subscribed feed's judgement of an executable.
type Advice struct {
	// Feed names the publishing organisation.
	Feed string
	// Score is the feed's 1-10 grade.
	Score float64
	// Behaviors is the feed's behaviour assessment.
	Behaviors core.Behavior
	// Note is the feed's justification.
	Note string
}

func metaToWire(meta core.SoftwareMeta) wire.SoftwareInfo {
	return wire.SoftwareInfo{
		ID:       meta.ID.String(),
		FileName: meta.FileName,
		FileSize: meta.FileSize,
		Vendor:   meta.Vendor,
		Version:  meta.Version,
	}
}

// reportFromWire converts a wire lookup response to the client form.
func reportFromWire(resp *wire.LookupResponse) (Report, error) {
	behaviors, err := core.ParseBehavior(resp.Behaviors)
	if err != nil {
		return Report{}, fmt.Errorf("client: lookup behaviours: %w", err)
	}
	rep := Report{
		Known:       resp.Known,
		Score:       resp.Score,
		Votes:       resp.Votes,
		Behaviors:   behaviors,
		Vendor:      resp.Vendor,
		VendorScore: resp.VendorScore,
		VendorCount: resp.VendorCount,
		Comments:    resp.Comments,
	}
	for _, ai := range resp.Advice {
		ab, err := core.ParseBehavior(ai.Behaviors)
		if err != nil {
			return Report{}, fmt.Errorf("client: advice behaviours: %w", err)
		}
		rep.Advice = append(rep.Advice, Advice{
			Feed: ai.Feed, Score: ai.Score, Behaviors: ab, Note: ai.Note,
		})
	}
	return rep, nil
}

// Lookup fetches the report for an executable, attaching advice from
// any named expert-feed subscriptions (§4.2). With batching enabled
// (SetBatching) concurrent lookups coalesce into one wire round trip;
// with the binary protocol enabled the request rides the compact
// framing, falling back to XML per endpoint.
func (a *API) Lookup(ctx context.Context, meta core.SoftwareMeta, feeds ...string) (Report, error) {
	if b := a.batcher.Load(); b != nil {
		return b.lookup(ctx, meta, feeds)
	}
	return a.lookupDirect(ctx, meta, feeds)
}

// lookupDirect is Lookup without the coalescing window.
func (a *API) lookupDirect(ctx context.Context, meta core.SoftwareMeta, feeds []string) (Report, error) {
	var resp wire.LookupResponse
	req := wire.LookupRequest{Software: metaToWire(meta), Feeds: feeds}
	if err := a.lookupExchange(ctx, &req, &resp); err != nil {
		return Report{}, err
	}
	return reportFromWire(&resp)
}

// Rating is the user's answer to a rating prompt.
type Rating struct {
	// Score is the 1–10 grade.
	Score int
	// Behaviors are the behaviours the user observed.
	Behaviors core.Behavior
	// Comment is optional free text.
	Comment string
}

// Vote casts the session user's vote on an executable and returns the
// comment ID when a comment was attached.
func (a *API) Vote(ctx context.Context, session string, meta core.SoftwareMeta, r Rating) (uint64, error) {
	req := wire.VoteRequest{
		Session:   session,
		Software:  metaToWire(meta),
		Score:     r.Score,
		Behaviors: r.Behaviors.String(),
		Comment:   r.Comment,
	}
	var resp wire.VoteResponse
	if err := a.voteExchange(ctx, &req, &resp); err != nil {
		return 0, err
	}
	return resp.CommentID, nil
}

// Remark judges another user's comment.
func (a *API) Remark(ctx context.Context, session string, commentID uint64, positive bool) error {
	return a.call(ctx, wire.PathRemark, wire.RemarkRequest{
		Session: session, CommentID: commentID, Positive: positive,
	}, &wire.RemarkResponse{})
}

// Vendor fetches a vendor's derived rating.
func (a *API) Vendor(ctx context.Context, name string) (wire.VendorResponse, error) {
	var resp wire.VendorResponse
	err := a.callRead(ctx, wire.PathVendor, wire.VendorRequest{Vendor: name}, &resp)
	return resp, err
}

// Stats fetches the database summary.
func (a *API) Stats(ctx context.Context) (wire.StatsResponse, error) {
	var resp wire.StatsResponse
	err := a.get(ctx, wire.PathStats, &resp)
	return resp, err
}

// Healthz fetches an endpoint's health document directly (no failover
// sweep, no retries): health is a question about one server.
func (a *API) Healthz(ctx context.Context, base string) (wire.HealthzResponse, error) {
	if base == "" {
		base = a.base
	}
	var resp wire.HealthzResponse
	err := a.roundTrip(ctx, base, wire.PathHealthz, nil, &resp)
	return resp, err
}
