// Package resilience engineers the failure behaviour of the
// client↔server path. The paper's exec hook blocks program execution
// until the reputation server answers (§3.1), and §4.2 names system
// stability as the key deployment risk — so every network failure mode
// must be reproducible, bounded and measurable.
//
// The package provides four cooperating pieces:
//
//   - PartitionNet: a deterministic, virtual-clock-driven network of
//     named nodes whose links an experiment cuts, degrades (latency,
//     every-Nth blackholes or 503 bursts) and heals, so tests and
//     experiments replay identical outages.
//   - Policy: retry with exponential backoff, jitter and per-attempt
//     deadlines, honouring server Retry-After hints.
//   - Breaker: a closed/open/half-open circuit breaker that fast-fails
//     calls while the server is known dead and probes for recovery.
//   - Executor: the composition of retry and breaker that the client's
//     API wraps every wire call in.
//
// Everything takes a vclock.Clock: under a virtual clock, backoff and
// injected latency advance simulated time instead of sleeping, which
// keeps chaos experiments (E17) fast and exactly repeatable.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"softreputation/internal/vclock"
)

// Sleeper spends a backoff or injected-latency duration. The real
// implementation blocks; the virtual one advances a simulated clock.
type Sleeper interface {
	// Sleep waits for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealSleeper blocks on the wall clock.
type RealSleeper struct{}

// Sleep implements Sleeper.
func (RealSleeper) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// VirtualSleeper advances a virtual clock instead of blocking, so
// simulated outages and backoff schedules cost no wall time.
type VirtualSleeper struct {
	Clock *vclock.Virtual
}

// Sleep implements Sleeper.
func (s VirtualSleeper) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.Clock.Advance(d)
	return nil
}

// SleeperFor selects the sleeper matching a clock: virtual clocks get
// a VirtualSleeper, everything else the real one.
func SleeperFor(clock vclock.Clock) Sleeper {
	if v, ok := clock.(*vclock.Virtual); ok {
		return VirtualSleeper{Clock: v}
	}
	return RealSleeper{}
}

// HTTPStatusError reports a non-2xx response. The client API wraps
// every wire-level error in one, so retry logic can classify by status
// while errors.As still reaches the decoded wire error underneath.
type HTTPStatusError struct {
	// Status is the HTTP status code.
	Status int
	// RetryAfter is the server's Retry-After hint, zero when absent.
	RetryAfter time.Duration
	// Binary reports that the answer came as a binary frame.
	Binary bool
	// Err is the decoded wire error or a generic status error.
	Err error
}

// Error implements error.
func (e *HTTPStatusError) Error() string {
	return fmt.Sprintf("http %d: %v", e.Status, e.Err)
}

// Unwrap exposes the wrapped wire error to errors.Is/As.
func (e *HTTPStatusError) Unwrap() error { return e.Err }

// ErrOpen is returned when the circuit breaker fast-fails a call
// without touching the network.
var ErrOpen = errors.New("resilience: circuit breaker open")

// Retryable classifies an error from one attempt: transport failures,
// timeouts, 5xx and 429 responses are worth retrying; application
// errors (4xx) and a fast-failing breaker are not. Context
// cancellation is handled separately by the Executor, which always
// stops when the parent context is done.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOpen) || errors.Is(err, context.Canceled) {
		return false
	}
	var se *HTTPStatusError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == 429
	}
	// Transport-level failures (connection refused, resets, attempt
	// deadlines) are transient by assumption.
	return true
}

// IsShed reports whether an error is a deliberate overload shed (HTTP
// 429): the server is alive and chose not to serve this request. Sheds
// are retryable (with backoff, honouring Retry-After) but are not
// evidence of a dead endpoint — the circuit breaker must not trip on
// them and the failover client must not abandon the endpoint.
func IsShed(err error) bool {
	var se *HTTPStatusError
	return errors.As(err, &se) && se.Status == 429
}

// RetryAfterHint extracts the server's Retry-After suggestion from an
// error, when one was sent.
func RetryAfterHint(err error) (time.Duration, bool) {
	var se *HTTPStatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter, true
	}
	return 0, false
}
