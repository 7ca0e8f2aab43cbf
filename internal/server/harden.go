package server

import (
	"errors"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// Hardening state: the load-shedding gate and the draining flag live
// on the Server so admin tooling and the shutdown path can flip them
// while requests are in flight. Role, fence and storage state live in
// the store, which is asked once per request (storedb.DB.WriteRefusal).
//
// Two kinds of refusal leave this file, and clients treat them
// differently:
//
//   - the state refusals of the table below: the node is draining, or
//     the store refuses the write. Clients go elsewhere at once: they
//     fail over on 503, re-aim at the named primary on 421.
//   - 429 CodeOverloaded: the admission layer (or the legacy static
//     cap) shed the request. The server is alive; clients back off and
//     retry the same endpoint, and the circuit breaker does not count
//     it as a failure.

// refusal is one row of the node's refusal table: the status, wire code
// and message a request that cannot be served is told, and whether the
// document names the primary and carries this node's epoch.
type refusal struct {
	status         int
	code, message  string
	primary, epoch bool
}

// The refusal table, in precedence order. 421 is deliberately not a
// retryable class: the client must re-aim at the primary, not hammer
// the replica.
var (
	refuseDraining = refusal{http.StatusServiceUnavailable, wire.CodeUnavailable, "server is draining for shutdown", false, false}
	refuseReplica  = refusal{http.StatusMisdirectedRequest, wire.CodeRedirect, "replica does not accept writes; use the primary", true, true}
	refuseFenced   = refusal{http.StatusServiceUnavailable, wire.CodeFenced, "fenced by a higher promotion epoch; writes refused", false, true}
	refuseCorrupt  = refusal{http.StatusServiceUnavailable, wire.CodeUnavailable, "storage corrupt: writes unavailable until repaired from a healthy peer", false, false}
	refuseFailed   = refusal{http.StatusServiceUnavailable, wire.CodeUnavailable, "storage degraded: writes unavailable until reopen", false, false}
)

// refusalFor is the node's one state decision: the row a request gets,
// or the zero refusal when it is to be served. Health and observability
// paths are always served; a draining node refuses everything else; a
// read is served in every store state (the data is still the newest this
// node has, and the replication endpoints must stay up for a corrupt
// primary's repair); a write gets the row of storeErr. The store has
// already chosen which of its states speaks (storedb.DB.WriteRefusal),
// so the arms below translate and do not rank. A closed store has no
// row: the handler's own error says so.
func refusalFor(draining bool, storeErr error, write, bypass bool) refusal {
	switch {
	case bypass:
		return refusal{}
	case draining:
		return refuseDraining
	case !write || storeErr == nil:
		return refusal{}
	case errors.Is(storeErr, storedb.ErrReplica):
		return refuseReplica
	case errors.Is(storeErr, storedb.ErrFenced):
		return refuseFenced
	case errors.Is(storeErr, storedb.ErrStorageCorrupt):
		return refuseCorrupt
	case errors.Is(storeErr, storedb.ErrStorageFailed):
		return refuseFailed
	}
	return refusal{}
}

// refusalDoc renders a row as this node's error document.
func (s *Server) refusalDoc(ref refusal) *wire.ErrorResponse {
	e := &wire.ErrorResponse{Code: ref.code, Message: ref.message}
	if ref.primary {
		e.Primary = s.PrimaryURL()
	}
	if ref.epoch {
		e.Epoch = s.Epoch()
	}
	return e
}

// SetDraining marks the server as draining: every new request is
// answered 503 + Retry-After so clients fail over immediately, while
// requests already inside the handlers run to completion. The graceful
// shutdown path flips this before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether new requests are being refused.
func (s *Server) Draining() bool { return s.draining.Load() }

// ShedCount returns how many requests were refused by the shedding
// gates (drain, static cap, or admission).
func (s *Server) ShedCount() int64 { return atomic.LoadInt64(&s.shed) }

// InflightRequests returns how many requests are currently inside the
// handler chain.
func (s *Server) InflightRequests() int64 { return atomic.LoadInt64(&s.inflight) }

// Admission returns the adaptive admission controller, nil when the
// server runs the legacy static cap.
func (s *Server) Admission() *admission.Controller { return s.admit }

// BrownoutLevel returns the current brownout level: the admission
// ladder's (LevelFull when admission control is disabled), and at least
// LevelCacheOnly while storage is failed or corrupt, so that the read
// path stops doing write-adjacent work on a store that cannot (failed)
// or must not (corrupt) make anything new durable. The floor is derived
// on each read and leaves the ladder's own position alone.
func (s *Server) BrownoutLevel() admission.Level {
	level := admission.LevelFull
	if s.admit != nil {
		level = s.admit.Level()
	}
	if db := s.store.DB(); level < admission.LevelCacheOnly && (db.Failed() || db.Corrupt()) {
		level = admission.LevelCacheOnly
	}
	return level
}

// SetServiceProfile injects an artificial per-request service time
// inside the handler chain, with a concurrency knee: up to knee
// concurrent requests each cost d, beyond it the per-request cost
// grows quadratically with concurrency — the contention collapse (lock
// convoys, GC pressure, cache thrash) that makes a fixed inflight cap
// the wrong tool and gives an adaptive limiter something to find.
// knee <= 0 selects a flat profile. It is E20's cost model: it makes
// handler cost real so the limiter has a latency signal to adapt to;
// production code has no reason to call it.
func (s *Server) SetServiceProfile(d time.Duration, knee int) {
	atomic.StoreInt64(&s.serviceKnee, int64(knee))
	atomic.StoreInt64(&s.serviceDelay, int64(d))
}

// shedRetryAfter is the base of the Retry-After hint sent with a 429 or
// 503 refusal.
const shedRetryAfter = time.Second

// retryAfterSeconds renders a Retry-After hint with bounded jitter:
// uniform in [base, 2*base] whole seconds. A constant hint makes every
// shed client retry in lockstep, re-creating the spike that caused the
// shed; the spread de-synchronizes the herd even before the client's
// own retry jitter applies.
func retryAfterSeconds(base time.Duration) string {
	secs := int(base / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs + rand.Intn(secs+1))
}

// bypassAdmission reports whether a path skips the admission gate: the
// health and observability endpoints must stay reachable precisely when
// the server is shedding, or operators lose sight of the overload they
// are debugging.
func bypassAdmission(path string) bool {
	return path == wire.PathHealthz || path == wire.PathReplStatus ||
		path == wire.PathMetrics || path == wire.PathTrace
}

// classifyRequest maps a request onto its admission class. The path
// gives the default; the client's priority header can raise a lookup to
// Critical (a frozen critical system process, §4.2) or lower any
// request to Background (prefetch, feed polls).
func classifyRequest(r *http.Request) admission.Class {
	var class admission.Class
	switch path := r.URL.Path; {
	case path == wire.PathLookup, path == wire.PathLookupBatch:
		// A batch is classified exactly like a single lookup — by its
		// own priority header below — so coalescing lookups into one
		// frame cannot launder a background prefetch into the
		// interactive class.
		class = admission.Interactive
	case path == wire.PathVendor:
		// Vendor reports back the execution prompt, like lookups.
		class = admission.Interactive
	case wire.WritePath(path):
		class = admission.Write
	default:
		// Stats, replication pulls, the web view.
		class = admission.Background
	}
	switch r.Header.Get(wire.HeaderPriority) {
	case wire.PriorityCritical:
		if class == admission.Interactive {
			class = admission.Critical
		}
	case wire.PriorityBackground:
		class = admission.Background
	}
	return class
}

// requestPrincipal identifies the client for per-principal throttling:
// the remote host, held in memory only (the §2.2 no-IPs rule covers the
// store, not the admission gate's transient buckets).
func requestPrincipal(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// refuse answers a request the gate turns away, and counts it as shed
// unless it is the redirect: that request was routed, not shed.
func (s *Server) refuse(sc *scope, status int, e *wire.ErrorResponse) {
	if status != http.StatusMisdirectedRequest {
		atomic.AddInt64(&s.shed, 1)
	}
	sc.fail(status, e)
	sc.flush()
}

// harden puts a handler (the raw mux) behind serve.
func (s *Server) harden(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.serve(next, w, r) })
}

// serve is the request path, every stage between the connection and the
// mux in order, around one pooled scope (scope.go) that is the handler's
// ResponseWriter: request id, codec, epoch, then in admitAndRun the refusals,
// the inflight count, the admission ticket, the deadline, the injected
// E20 cost, the mux and the write of the response, then observe and
// trace, so that refusals are counted, timed and traced like any other
// response. A panic goes on to net/http, observed by nothing.
func (s *Server) serve(next http.Handler, w http.ResponseWriter, r *http.Request) {
	sc := scopes.Get().(*scope)
	bin := isBinaryRequest(r)
	sc.s, sc.w, sc.bin = s, w, bin
	var start time.Time
	if s.tel != nil {
		// Adopt the caller's request id or mint one; flush echoes the slice.
		start = time.Now()
		sc.reqID = r.Header.Values(wire.HeaderRequestID)
		if len(sc.reqID) == 0 || !telemetry.ValidRequestID(sc.reqID[0]) {
			r.Header.Set(wire.HeaderRequestID, telemetry.NewRequestID())
			sc.reqID = r.Header.Values(wire.HeaderRequestID)
		}
		sc.reqID = sc.reqID[:1]
	}
	// Learn promotions from the request before any gate decides anything,
	// so that even a request that will be shed fences a stale primary.
	if v := r.Header.Get(wire.HeaderEpoch); v != "" {
		if e, err := strconv.ParseUint(v, 10, 64); err == nil {
			s.ObserveEpoch(e)
		}
	}

	s.admitAndRun(next, sc, r)

	if s.tel != nil {
		d := time.Since(start)
		status, detail := sc.outcome()
		s.tel.observe(r.URL.Path, bin, status, d)
		if s.tel.trace.Notable(status, d) {
			s.tel.trace.Record(telemetry.TraceEvent{ID: sc.reqID[0], Time: time.Now(),
				Method: r.Method, Path: r.URL.Path, Status: status, Duration: d, Detail: detail})
		}
	}
	if sc.recycle() {
		scopes.Put(sc)
	}
}

// admitAndRun refuses work the server cannot absorb and runs the handler
// for the rest; its defers release what the request holds also when the
// handler panics. Node state (refusalFor) answers first, read once.
// Overload answers 429 (back off, retry here), from the admission
// controller when configured, otherwise from the static MaxInflight cap.
func (s *Server) admitAndRun(next http.Handler, sc *scope, r *http.Request) {
	path := r.URL.Path
	bypass := bypassAdmission(path)
	if ref := refusalFor(s.Draining(), s.store.DB().WriteRefusal(), wire.WritePath(path), bypass); ref.status != 0 {
		s.refuse(sc, ref.status, s.refusalDoc(ref))
		return
	}

	n := atomic.AddInt64(&s.inflight, 1)
	defer atomic.AddInt64(&s.inflight, -1)
	switch {
	case s.admit != nil && !bypass:
		tk, err := s.admit.Admit(r.Context(), classifyRequest(r), requestPrincipal(r))
		if err != nil {
			s.refuse(sc, http.StatusTooManyRequests, &wire.ErrorResponse{Code: wire.CodeOverloaded, Message: err.Error()})
			return
		}
		defer tk.Done()
	case s.admit == nil && s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight):
		s.refuse(sc, http.StatusTooManyRequests, &wire.ErrorResponse{Code: wire.CodeOverloaded, Message: "server overloaded, retry later"})
		return
	}

	// If the timer fires first it answers 503 in the handler's place.
	if d := s.cfg.RequestTimeout; d > 0 {
		r = sc.arm(r, d)
		defer sc.end()
	}

	// The SetServiceProfile experiment cost sits inside the admission gate
	// and the deadline: the limiter observes it as handler latency, on
	// admitted concurrency, not shed traffic. Health endpoints stay instant.
	if d := time.Duration(atomic.LoadInt64(&s.serviceDelay)); d > 0 && !bypass {
		const delayCeiling = 250 * time.Millisecond
		n := atomic.AddInt64(&s.delayInflight, 1)
		if k := atomic.LoadInt64(&s.serviceKnee); k > 0 && n > k {
			d = min(d*time.Duration(n*n)/time.Duration(k*k), delayCeiling)
		}
		time.Sleep(d)
		atomic.AddInt64(&s.delayInflight, -1)
	}

	next.ServeHTTP(sc, r)
	sc.flush()
}
