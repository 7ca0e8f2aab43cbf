// Package client implements the reputation system's client side (§3.1):
// the API client speaking the XML protocol, the execution-decision
// engine behind the host's kernel hook with its white and black lists,
// signature-based auto-allowing (§4.2), policy enforcement, the
// rating-prompt throttle (ask only after 50 executions, at most two
// rating prompts per week), and the degraded-mode machinery that keeps
// hosts deciding when the server is slow, shedding load, or down.
package client

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"softreputation/internal/core"
	"softreputation/internal/resilience"
	"softreputation/internal/wire"
)

// API is a client for the server's XML protocol. It is safe for
// concurrent use. Every method takes a context; cancelling it aborts
// the in-flight request and any pending retries.
type API struct {
	base     string
	http     *http.Client
	exec     *resilience.Executor
	failover *Failover

	// xmlOnly is non-nil once the client has opted into the compact binary
	// protocol, and pins the endpoints that turned it down (see binary.go);
	// idle are each endpoint's idle sessions (session.go).
	protoMu sync.Mutex
	xmlOnly map[string]bool
	idle    map[string][]*session
}

// NewAPI creates an API client for the server at baseURL. A nil
// httpClient selects the package's shared keep-alive-tuned client (see
// NewTransport); passing a client with a custom transport is how the
// experiments route calls through a tier's partitionable network.
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
	a := NewAPI(endpoints[0], httpClient)
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

// Challenge fetches the registration challenge.
func (a *API) Challenge(ctx context.Context) (wire.ChallengeResponse, error) {
	var out wire.ChallengeResponse
	err := a.invoke(ctx, op{path: wire.PathChallenge}, nil, &out)
	return out, err
}

// Register submits a registration.
func (a *API) Register(ctx context.Context, req wire.RegisterRequest) error {
	return a.invoke(ctx, op{path: wire.PathRegister}, req, &wire.RegisterResponse{})
}

// Activate redeems an activation token and returns the username.
func (a *API) Activate(ctx context.Context, token string) (string, error) {
	var resp wire.ActivateResponse
	err := a.invoke(ctx, op{path: wire.PathActivate}, wire.ActivateRequest{Token: token}, &resp)
	return resp.Username, err
}

// Login opens a session and returns its token.
func (a *API) Login(ctx context.Context, username, password string) (string, error) {
	var resp wire.LoginResponse
	err := a.invoke(ctx, op{path: wire.PathLogin}, wire.LoginRequest{Username: username, Password: password}, &resp)
	return resp.Token, err
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
// any named expert-feed subscriptions (§4.2). With the binary protocol
// enabled the request rides the compact framing, falling back to XML per
// endpoint.
func (a *API) Lookup(ctx context.Context, meta core.SoftwareMeta, feeds ...string) (Report, error) {
	var resp wire.LookupResponse
	req := wire.LookupRequest{Software: metaToWire(meta), Feeds: feeds}
	if err := a.invoke(ctx, opLookup, &req, &resp); err != nil {
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
	err := a.invoke(ctx, opVote, &req, &resp)
	return resp.CommentID, err
}

// Remark judges another user's comment.
func (a *API) Remark(ctx context.Context, session string, commentID uint64, positive bool) error {
	return a.invoke(ctx, op{path: wire.PathRemark}, wire.RemarkRequest{
		Session: session, CommentID: commentID, Positive: positive,
	}, &wire.RemarkResponse{})
}

// Vendor fetches a vendor's derived rating.
func (a *API) Vendor(ctx context.Context, name string) (wire.VendorResponse, error) {
	var resp wire.VendorResponse
	err := a.invoke(ctx, op{path: wire.PathVendor}, wire.VendorRequest{Vendor: name}, &resp)
	return resp, err
}

// Stats fetches the database summary.
func (a *API) Stats(ctx context.Context) (wire.StatsResponse, error) {
	var resp wire.StatsResponse
	err := a.invoke(ctx, op{path: wire.PathStats}, nil, &resp)
	return resp, err
}

// Healthz fetches an endpoint's health document directly (no failover
// sweep, no retries): health is a question about one server.
func (a *API) Healthz(ctx context.Context, base string) (wire.HealthzResponse, error) {
	if base == "" {
		base = a.base
	}
	var resp wire.HealthzResponse
	err := a.send(ctx, base, wire.PathHealthz, false, nil, &resp)
	return resp, err
}
