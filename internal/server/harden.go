package server

import (
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// Hardening state: the load-shedding gate and the draining flag live
// on the Server so admin tooling and the shutdown path can flip them
// while requests are in flight.
//
// Two distinct refusals leave this file, and clients treat them
// differently:
//
//   - 503 CodeUnavailable: the server is draining for shutdown. Clients
//     fail over to another endpoint immediately.
//   - 429 CodeOverloaded: the admission layer (or the legacy static
//     cap) shed the request. The server is alive; clients back off and
//     retry the same endpoint, and the circuit breaker does not count
//     it as a failure.

// SetDraining marks the server as draining: every new request is
// answered 503 + Retry-After so clients fail over immediately, while
// requests already inside the handlers run to completion. The graceful
// shutdown path flips this before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) {
	if v {
		atomic.StoreInt32(&s.draining, 1)
	} else {
		atomic.StoreInt32(&s.draining, 0)
	}
}

// Draining reports whether new requests are being refused.
func (s *Server) Draining() bool { return atomic.LoadInt32(&s.draining) == 1 }

// ShedCount returns how many requests were refused by the shedding
// gates (drain, static cap, or admission).
func (s *Server) ShedCount() int64 { return atomic.LoadInt64(&s.shed) }

// InflightRequests returns how many requests are currently inside the
// handler chain.
func (s *Server) InflightRequests() int64 { return atomic.LoadInt64(&s.inflight) }

// Admission returns the adaptive admission controller, nil when the
// server runs the legacy static cap.
func (s *Server) Admission() *admission.Controller { return s.admit }

// BrownoutLevel returns the current brownout level (LevelFull when
// admission control is disabled).
func (s *Server) BrownoutLevel() admission.Level {
	if s.admit == nil {
		return admission.LevelFull
	}
	return s.admit.Level()
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

// writeShed answers a refusal with Retry-After and the XML error
// document. The status and code tell the client what to do: 503
// CodeUnavailable or CodeFenced means fail over now, 429 CodeOverloaded
// means the server is alive but shedding — back off and retry here.
func writeShed(w http.ResponseWriter, status int, retryAfter time.Duration, resp *wire.ErrorResponse) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_ = wire.Encode(w, resp)
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
	switch r.URL.Path {
	case wire.PathLookup, wire.PathLookupBatch:
		// A batch is classified exactly like a single lookup — by its
		// own priority header below — so coalescing lookups into one
		// frame cannot launder a background prefetch into the
		// interactive class.
		class = admission.Interactive
	case wire.PathVendor:
		// Vendor reports back the execution prompt, like lookups.
		class = admission.Interactive
	case wire.PathVote, wire.PathRemark, wire.PathLogin, wire.PathRegister,
		wire.PathActivate, wire.PathChallenge:
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

// refuse counts a shed request and answers it.
func (s *Server) refuse(sc *scope, status int, code, msg string) {
	atomic.AddInt64(&s.shed, 1)
	writeShed(sc, status, s.cfg.ShedRetryAfter, &wire.ErrorResponse{Code: code, Message: msg})
	sc.flush()
}

// harden puts a handler (the raw mux) behind serve.
func (s *Server) harden(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.serve(next, w, r) })
}

// serve is the request path, every stage between the connection and the
// mux in order, around one pooled scope (scope.go) that is the handler's
// ResponseWriter: request id, epoch, then in admitAndRun the refusals,
// the inflight count, the admission ticket, the deadline, the injected
// E20 cost, the mux and the write of the response, then observe and
// trace, so that refusals are counted, timed and traced like any other
// response. A panic goes on to net/http, observed by nothing.
func (s *Server) serve(next http.Handler, w http.ResponseWriter, r *http.Request) {
	sc := scopes.Get().(*scope)
	sc.s, sc.w = s, w
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
		s.tel.observe(r.URL.Path, isBinaryRequest(r), status, d)
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
// handler panics. Draining answers 503 (fail over). Overload answers 429
// (back off, retry here), from the admission controller when
// configured, otherwise from the static MaxInflight cap.
func (s *Server) admitAndRun(next http.Handler, sc *scope, r *http.Request) {
	if s.Draining() {
		s.refuse(sc, http.StatusServiceUnavailable, wire.CodeUnavailable, "server is draining for shutdown")
		return
	}
	bypass := bypassAdmission(r.URL.Path)
	class := classifyRequest(r)
	if (s.storageFailed() || s.storageCorrupt()) && !bypass {
		// Storage is in a sticky read-only state: the store serves
		// reads from the last committed tree but cannot (failed) or
		// must not (corrupt) make anything new durable. Shed writes
		// with 503 (clients fail over to a healthy primary) and step
		// the brownout ladder to cache-only so the read path stops
		// doing write-adjacent work. The replication endpoints stay up
		// either way — a corrupt primary's repair depends on its
		// replicas catching up from exactly this state.
		if s.admit != nil && s.admit.Level() < admission.LevelCacheOnly {
			s.admit.SetLevel(admission.LevelCacheOnly)
		}
		if class == admission.Write {
			msg := "storage degraded: writes unavailable until reopen"
			if s.storageCorrupt() {
				msg = "storage corrupt: writes unavailable until repaired from a healthy peer"
			}
			s.refuse(sc, http.StatusServiceUnavailable, wire.CodeUnavailable, msg)
			return
		}
	}
	if s.Fenced() && !bypass && class == admission.Write {
		// A higher epoch exists somewhere: accepting this write
		// would fork history. Reads keep flowing — the data is
		// still the newest this node has.
		atomic.AddInt64(&s.shed, 1)
		writeFenced(sc, s.cfg.ShedRetryAfter, s.Epoch())
		sc.flush()
		return
	}

	n := atomic.AddInt64(&s.inflight, 1)
	defer atomic.AddInt64(&s.inflight, -1)
	switch {
	case s.admit != nil && !bypass:
		tk, err := s.admit.Admit(r.Context(), class, requestPrincipal(r))
		if err != nil {
			s.refuse(sc, http.StatusTooManyRequests, wire.CodeOverloaded, err.Error())
			return
		}
		defer tk.Done()
	case s.admit == nil && s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight):
		s.refuse(sc, http.StatusTooManyRequests, wire.CodeOverloaded, "server overloaded, retry later")
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
