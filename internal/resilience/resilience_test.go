package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"softreputation/internal/vclock"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.delay(i+1, nil); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("connection refused"), true},
		{&HTTPStatusError{Status: 503, Err: errors.New("x")}, true},
		{&HTTPStatusError{Status: 429, Err: errors.New("x")}, true},
		{&HTTPStatusError{Status: 404, Err: errors.New("x")}, false},
		{&HTTPStatusError{Status: 409, Err: errors.New("x")}, false},
		{ErrOpen, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true}, // an attempt deadline: try again
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Fatalf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	b := NewBreaker(3, time.Minute, clock)
	fail := errors.New("connection refused")

	// Three consecutive transient failures trip the circuit.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(fail)
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}

	// After the cooldown: exactly one probe goes through.
	clock.Advance(time.Minute)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker rejected the probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe allowed")
	}

	// A failed probe reopens; a later successful probe closes.
	b.Record(fail)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v", b.State())
	}
	clock.Advance(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal("probe after second cooldown rejected")
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("state after good probe = %v", b.State())
	}
	st := b.Stats()
	if st.Opens != 2 || st.Probes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerApplicationErrorsDoNotTrip(t *testing.T) {
	b := NewBreaker(2, time.Minute, vclock.NewVirtual(vclock.Epoch))
	notFound := &HTTPStatusError{Status: 404, Err: errors.New("not-found")}
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal("breaker tripped on 4xx")
		}
		b.Record(notFound)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

func TestExecutorRetriesThenSucceeds(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	e := NewExecutor(Policy{MaxAttempts: 4, BaseDelay: time.Second, Multiplier: 2}, nil, clock, 1)
	attempts := 0
	err := e.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
	// Two backoffs consumed virtual time: 1s + 2s.
	if got := clock.Now().Sub(vclock.Epoch); got != 3*time.Second {
		t.Fatalf("virtual backoff = %v, want 3s", got)
	}
	st := e.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecutorHonoursRetryAfter(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	e := NewExecutor(Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond}, nil, clock, 1)
	overloaded := &HTTPStatusError{Status: 503, RetryAfter: 5 * time.Second, Err: errors.New("busy")}
	attempts := 0
	e.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts == 1 {
			return overloaded
		}
		return nil
	})
	hint := 5 * time.Second
	if got := clock.Now().Sub(vclock.Epoch); got < hint || got > hint+hint/4 {
		t.Fatalf("waited %v, want within [hint, 1.25*hint] of the 5s Retry-After", got)
	}
}

func TestExecutorJittersRetryAfterHint(t *testing.T) {
	// Different executors (different jitter seeds) receiving the same
	// Retry-After hint must not wake up at the same instant — the hint
	// is a floor, not a schedule.
	hint := 4 * time.Second
	overloaded := &HTTPStatusError{Status: 429, RetryAfter: hint, Err: errors.New("overloaded")}
	waits := make(map[time.Duration]bool)
	for seed := int64(1); seed <= 8; seed++ {
		clock := vclock.NewVirtual(vclock.Epoch)
		e := NewExecutor(Policy{MaxAttempts: 2, BaseDelay: time.Millisecond}, nil, clock, seed)
		attempts := 0
		e.Do(context.Background(), func(context.Context) error {
			attempts++
			if attempts == 1 {
				return overloaded
			}
			return nil
		})
		got := clock.Now().Sub(vclock.Epoch)
		if got < hint || got > hint+hint/4 {
			t.Fatalf("seed %d waited %v, want within [hint, 1.25*hint]", seed, got)
		}
		waits[got] = true
	}
	if len(waits) < 2 {
		t.Fatalf("all executors retried in lockstep at %v", waits)
	}
}

func TestIsShedClassification(t *testing.T) {
	shed := &HTTPStatusError{Status: 429, Err: errors.New("overloaded")}
	if !IsShed(shed) {
		t.Fatal("429 not classified as shed")
	}
	if !Retryable(shed) {
		t.Fatal("sheds must stay retryable")
	}
	for _, err := range []error{
		&HTTPStatusError{Status: 503, Err: errors.New("draining")},
		&HTTPStatusError{Status: 500, Err: errors.New("boom")},
		errors.New("connection refused"),
		nil,
	} {
		if IsShed(err) {
			t.Fatalf("IsShed(%v) = true", err)
		}
	}
}

func TestBreakerShedsDoNotTrip(t *testing.T) {
	b := NewBreaker(2, time.Minute, vclock.NewVirtual(vclock.Epoch))
	shed := &HTTPStatusError{Status: 429, Err: errors.New("overloaded")}
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal("breaker tripped on 429 sheds")
		}
		b.Record(shed)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}

	// A shed also resets the failure streak: the server answered, so it
	// is not on the way down.
	fail := errors.New("connection refused")
	b.Record(fail)
	b.Record(shed)
	b.Record(fail)
	if b.State() != Closed {
		t.Fatal("interleaved sheds did not reset the failure streak")
	}
}

func TestExecutorDoesNotRetryApplicationErrors(t *testing.T) {
	e := NewExecutor(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, nil, vclock.NewVirtual(vclock.Epoch), 1)
	attempts := 0
	bad := &HTTPStatusError{Status: 409, Err: errors.New("already-rated")}
	err := e.Do(context.Background(), func(context.Context) error {
		attempts++
		return bad
	})
	if !errors.Is(err, bad) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
}

func TestExecutorFastFailsWhenOpen(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	b := NewBreaker(2, time.Minute, clock)
	e := NewExecutor(Policy{MaxAttempts: 1}, b, clock, 1)
	fail := errors.New("refused")
	for i := 0; i < 2; i++ {
		e.Do(context.Background(), func(context.Context) error { return fail })
	}
	attempts := 0
	err := e.Do(context.Background(), func(context.Context) error { attempts++; return nil })
	if !errors.Is(err, ErrOpen) || attempts != 0 {
		t.Fatalf("open circuit: err=%v attempts=%d", err, attempts)
	}
	if e.Stats().FastFails != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}

	// Cooldown over: the probe closes the circuit again.
	clock.Advance(time.Minute)
	if err := e.Do(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

func TestExecutorStopsOnCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := NewExecutor(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, nil, vclock.NewVirtual(vclock.Epoch), 1)
	attempts := 0
	err := e.Do(ctx, func(context.Context) error {
		attempts++
		cancel()
		return errors.New("transient")
	})
	if err == nil || attempts != 1 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
}
