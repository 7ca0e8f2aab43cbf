package resilience

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"softreputation/internal/vclock"
)

// FaultMode selects what a fault window does to matched requests.
type FaultMode int

// Fault modes.
const (
	// FaultNone passes requests through untouched (after any Latency).
	FaultNone FaultMode = iota
	// FaultLatency only adds the window's Latency.
	FaultLatency
	// FaultDrop fails the connection after the Latency (a reset or a
	// dial timeout, from the caller's point of view).
	FaultDrop
	// FaultUnavailable answers 503 with a Retry-After hint without
	// reaching the server — an overloaded or load-shedding backend.
	FaultUnavailable
	// FaultPartition models a full network partition: every request
	// burns the Latency (the connect timeout) and fails.
	FaultPartition
)

// String names the mode for tables and logs.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultLatency:
		return "latency"
	case FaultDrop:
		return "drop"
	case FaultUnavailable:
		return "503"
	case FaultPartition:
		return "partition"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Window is one scheduled fault interval, expressed as offsets from
// the schedule start so profiles are position-independent.
type Window struct {
	// From and To bound the window: a request at instant t is matched
	// when Start+From <= t < Start+To.
	From, To time.Duration
	// Mode is the fault applied to matched requests.
	Mode FaultMode
	// Latency is added to every matched request before the fault
	// outcome; for Drop/Partition it models the connect timeout.
	Latency time.Duration
	// EveryN faults only every Nth matched request (1st, N+1th, …);
	// 0 or 1 faults all of them. Latency always applies.
	EveryN int
	// RetryAfter is the Retry-After hint sent with FaultUnavailable;
	// zero sends none.
	RetryAfter time.Duration
}

// Schedule is a deterministic fault plan anchored at a start instant.
type Schedule struct {
	// Start anchors the windows' offsets.
	Start time.Time
	// Windows are checked in order; the first match applies.
	Windows []Window
}

// at returns the window covering instant t, if any.
func (s Schedule) at(t time.Time) (Window, bool) {
	off := t.Sub(s.Start)
	for _, w := range s.Windows {
		if off >= w.From && off < w.To {
			return w, true
		}
	}
	return Window{}, false
}

// FaultStats counts what the injector did.
type FaultStats struct {
	// Requests is every request seen, faulted or not.
	Requests int
	// Dropped counts connections failed by Drop/Partition windows.
	Dropped int
	// Unavailable counts synthesized 503 responses.
	Unavailable int
	// AddedLatency is the total injected delay.
	AddedLatency time.Duration
}

// FaultTransport is a deterministic fault-injecting http.RoundTripper.
// Faults follow the Schedule on the given clock; with a virtual clock
// the injected latency advances simulated time, so a two-hour outage
// replays in microseconds and identically on every run.
type FaultTransport struct {
	// Base performs non-faulted requests; nil selects
	// http.DefaultTransport.
	Base http.RoundTripper
	// Clock positions requests on the schedule; nil selects the
	// system clock.
	Clock vclock.Clock
	// Schedule is the fault plan.
	Schedule Schedule

	mu      sync.Mutex
	matched int // matched-request counter driving EveryN
	stats   FaultStats
}

// Stats returns a snapshot of the injector's counters.
func (t *FaultTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// faultError is a synthetic connection failure.
type faultError struct {
	mode FaultMode
}

func (e *faultError) Error() string {
	return fmt.Sprintf("resilience: injected fault: connection %s", e.mode)
}

// Timeout marks the error as a timeout so net-aware callers treat it
// like a dial deadline.
func (e *faultError) Timeout() bool { return true }

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	clock := t.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	now := clock.Now()

	t.mu.Lock()
	t.stats.Requests++
	w, ok := t.Schedule.at(now)
	fault := false
	if ok {
		t.matched++
		fault = w.EveryN <= 1 || (t.matched-1)%w.EveryN == 0
		if w.Latency > 0 {
			t.stats.AddedLatency += w.Latency
		}
	}
	t.mu.Unlock()

	if ok && w.Latency > 0 {
		if err := SleeperFor(clock).Sleep(req.Context(), w.Latency); err != nil {
			return nil, err
		}
	}
	if !ok || !fault || w.Mode == FaultNone || w.Mode == FaultLatency {
		return t.base().RoundTrip(req)
	}

	// The faulted request never reaches the server; release its body.
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	switch w.Mode {
	case FaultUnavailable:
		t.mu.Lock()
		t.stats.Unavailable++
		t.mu.Unlock()
		return unavailableResponse(req, w.RetryAfter), nil
	default: // FaultDrop, FaultPartition
		t.mu.Lock()
		t.stats.Dropped++
		t.mu.Unlock()
		return nil, &faultError{mode: w.Mode}
	}
}

func (t *FaultTransport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// unavailableResponse synthesizes the load-shedding 503 the real
// server sends, Retry-After hint included.
func unavailableResponse(req *http.Request, retryAfter time.Duration) *http.Response {
	body := `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<error code="unavailable">injected fault: server overloaded</error>`
	h := make(http.Header)
	h.Set("Content-Type", "application/xml; charset=utf-8")
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		h.Set("Retry-After", strconv.Itoa(secs))
	}
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
