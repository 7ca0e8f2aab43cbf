package resilience

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"softreputation/internal/vclock"
)

// ExecutorStats counts what the executor did across all calls.
type ExecutorStats struct {
	// Calls is the number of Do invocations.
	Calls int
	// Attempts is the number of underlying operation attempts.
	Attempts int
	// Retries is how many attempts were repeats.
	Retries int
	// FastFails counts calls rejected by the open breaker.
	FastFails int
	// Failures counts calls that exhausted every attempt.
	Failures int
}

// Executor wraps an operation in the retry policy and (optionally) a
// circuit breaker. One executor guards one dependency — the client
// API holds one for the reputation server. It is safe for concurrent
// use.
type Executor struct {
	retry   Policy
	breaker *Breaker
	sleeper Sleeper

	mu    sync.Mutex
	rng   *rand.Rand
	stats ExecutorStats
}

// NewExecutor builds an executor. breaker may be nil (retry only);
// a nil clock selects the system clock; seed drives the backoff
// jitter so schedules replay deterministically.
func NewExecutor(retry Policy, breaker *Breaker, clock vclock.Clock, seed int64) *Executor {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Executor{
		retry:   retry,
		breaker: breaker,
		sleeper: SleeperFor(clock),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Stats returns a snapshot of the executor counters.
func (e *Executor) Stats() ExecutorStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Do runs op under the retry policy and breaker. op receives a
// per-attempt context (deadline-bounded when AttemptTimeout is set).
// The last attempt's error is returned; ErrOpen is returned without
// any attempt when the breaker is open. A nil executor is no policy:
// one direct attempt.
func (e *Executor) Do(ctx context.Context, op func(ctx context.Context) error) error {
	if e == nil {
		return op(ctx)
	}
	e.mu.Lock()
	e.stats.Calls++
	e.mu.Unlock()

	var err error
	for attempt := 0; attempt < e.retry.attempts(); attempt++ {
		if attempt > 0 {
			e.mu.Lock()
			d := e.retry.delay(attempt, e.rng)
			if hint, ok := RetryAfterHint(err); ok && hint > d {
				// Honour the hint, but never exactly: Retry-After is
				// whole seconds, so shed clients often receive the same
				// value and would reconverge into the spike that got
				// them shed. Each executor's own rng spreads retries
				// across [hint, 1.25*hint].
				d = hint + time.Duration(e.rng.Int63n(int64(hint)/4+1))
			}
			e.mu.Unlock()
			if serr := e.sleeper.Sleep(ctx, d); serr != nil {
				return serr
			}
			e.mu.Lock()
			e.stats.Retries++
			e.mu.Unlock()
		}

		if e.breaker != nil {
			if berr := e.breaker.Allow(); berr != nil {
				e.mu.Lock()
				e.stats.FastFails++
				e.mu.Unlock()
				return berr
			}
		}
		e.mu.Lock()
		e.stats.Attempts++
		e.mu.Unlock()

		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if e.retry.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, e.retry.AttemptTimeout)
		}
		err = op(attemptCtx)
		cancel()
		if e.breaker != nil {
			e.breaker.Record(err)
		}
		if err == nil {
			return nil
		}
		if !Retryable(err) || ctx.Err() != nil {
			break
		}
	}
	e.mu.Lock()
	e.stats.Failures++
	e.mu.Unlock()
	return err
}
