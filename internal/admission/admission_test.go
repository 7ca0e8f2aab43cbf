package admission

import (
	"context"
	"sync"
	"testing"
	"time"

	"softreputation/internal/vclock"
)

// drainTicket admits one request and returns its ticket, failing the
// test on any shed.
func drainTicket(t *testing.T, c *Controller, class Class) Ticket {
	t.Helper()
	tk, err := c.Admit(context.Background(), class, "")
	if err != nil {
		t.Fatalf("admit %v: %v", class, err)
	}
	return tk
}

func TestAdmitUnderLimitIsImmediate(t *testing.T) {
	c := New(Config{MaxLimit: 8})
	var tickets []Ticket
	for i := 0; i < 4; i++ {
		tickets = append(tickets, drainTicket(t, c, Interactive))
	}
	st := c.Snapshot()
	if st.Inflight != 4 {
		t.Fatalf("inflight = %d, want 4", st.Inflight)
	}
	if st.Classes[Interactive].Admitted != 4 {
		t.Fatalf("admitted = %d, want 4", st.Classes[Interactive].Admitted)
	}
	for _, tk := range tickets {
		tk.Done()
	}
	if st := c.Snapshot(); st.Inflight != 0 {
		t.Fatalf("inflight after done = %d", st.Inflight)
	}
}

func TestQueueFullShedsOnArrival(t *testing.T) {
	c := New(Config{MaxLimit: 1,
		QueueDeadline: [NumClasses]time.Duration{time.Minute, time.Minute, time.Minute, time.Minute}})
	held := drainTicket(t, c, Interactive)
	defer held.Done()

	// queueDepth waiters fill the queue...
	var wg sync.WaitGroup
	parkWaiters(c, &wg, Interactive, queueDepth)
	waitFor(t, func() bool { return queuedLen(c) == queueDepth })

	// ...the next one must be rejected on arrival.
	if _, err := c.Admit(context.Background(), Interactive, ""); err != ErrShed {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if got := c.Snapshot().Classes[Interactive].Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	held.Done()
	wg.Wait()
}

// parkWaiters starts n goroutines that each queue one request of class
// and release its slot as soon as it is admitted.
func parkWaiters(c *Controller, wg *sync.WaitGroup, class Class, n int) {
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			tk, err := c.Admit(context.Background(), class, "")
			if err == nil {
				tk.Done()
			}
		}()
	}
}

// queuedLen reads the total queue length under the lock.
func queuedLen(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPriorityDequeueServesCriticalFirst(t *testing.T) {
	c := New(Config{MaxLimit: 1,
		QueueDeadline: [NumClasses]time.Duration{time.Minute, time.Minute, time.Minute, time.Minute}})
	held := drainTicket(t, c, Interactive)

	type result struct {
		class Class
		order int
	}
	results := make(chan result, 2)
	var seq sync.Mutex
	next := 0

	launch := func(class Class) {
		go func() {
			tk, err := c.Admit(context.Background(), class, "")
			if err != nil {
				return
			}
			seq.Lock()
			next++
			results <- result{class: class, order: next}
			seq.Unlock()
			tk.Done()
		}()
	}
	// Background queues first, critical second — critical must still be
	// dispatched first.
	launch(Background)
	waitFor(t, func() bool { return queuedLen(c) == 1 })
	launch(Critical)
	waitFor(t, func() bool { return queuedLen(c) == 2 })

	held.Done()
	first := <-results
	<-results
	if first.class != Critical {
		t.Fatalf("first dispatched class = %v, want Critical", first.class)
	}
}

func TestQueueDeadlineShedsWaiter(t *testing.T) {
	c := New(Config{MaxLimit: 1,
		QueueDeadline: [NumClasses]time.Duration{time.Minute, 20 * time.Millisecond, time.Minute, time.Minute}})
	held := drainTicket(t, c, Interactive)
	defer held.Done()

	start := time.Now()
	_, err := c.Admit(context.Background(), Interactive, "")
	if err != ErrShed {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline shed took %v", elapsed)
	}
	if got := c.Snapshot().Classes[Interactive].Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

func TestContextCancelAbandonsWaiter(t *testing.T) {
	c := New(Config{MaxLimit: 1,
		QueueDeadline: [NumClasses]time.Duration{time.Minute, time.Minute, time.Minute, time.Minute}})
	held := drainTicket(t, c, Interactive)
	defer held.Done()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Interactive, "")
		done <- err
	}()
	waitFor(t, func() bool { return queuedLen(c) == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if queuedLen(c) != 0 {
		t.Fatal("cancelled waiter still queued")
	}
}

func TestTokenBucketThrottlesPrincipal(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{MaxLimit: 8, BucketRate: 1, BucketBurst: 2, Clock: clock})

	// The burst admits two; the third is throttled.
	for i := 0; i < 2; i++ {
		tk, err := c.Admit(context.Background(), Interactive, "1.2.3.4")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tk.Done()
	}
	if _, err := c.Admit(context.Background(), Interactive, "1.2.3.4"); err != ErrThrottled {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
	// A different principal is unaffected.
	if tk, err := c.Admit(context.Background(), Interactive, "5.6.7.8"); err != nil {
		t.Fatalf("other principal: %v", err)
	} else {
		tk.Done()
	}
	// Time refills the bucket.
	clock.Advance(2 * time.Second)
	if tk, err := c.Admit(context.Background(), Interactive, "1.2.3.4"); err != nil {
		t.Fatalf("after refill: %v", err)
	} else {
		tk.Done()
	}
	if got := c.Snapshot().Classes[Interactive].Throttled; got != 1 {
		t.Fatalf("throttled = %d, want 1", got)
	}
}

func TestAIMDShrinksOnLatencyAndRecovers(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{MaxLimit: 16,
		LatencyTarget: 10 * time.Millisecond, EvalWindow: 100 * time.Millisecond,
		Clock: clock})

	// A window of slow requests shrinks the limit multiplicatively.
	tk := drainTicket(t, c, Interactive)
	clock.Advance(50 * time.Millisecond)
	tk.Done()
	clock.Advance(100 * time.Millisecond)
	if got := c.Limit(); got >= 8 {
		t.Fatalf("limit = %d, want < 8 after hot window", got)
	}
	shrunk := c.Limit()

	// Saturated-but-fast windows grow it back additively. Admitting
	// exactly Limit() requests saturates the window without queueing.
	for i := 0; i < 5; i++ {
		clock.Advance(100 * time.Millisecond)
		n := c.Limit()
		tickets := make([]Ticket, 0, n)
		for j := 0; j < n; j++ {
			t2, err := c.Admit(context.Background(), Interactive, "")
			if err != nil {
				t.Fatalf("saturating admit %d/%d: %v", j, n, err)
			}
			tickets = append(tickets, t2)
		}
		clock.Advance(time.Millisecond)
		for _, t2 := range tickets {
			t2.Done()
		}
	}
	if got := c.Limit(); got <= shrunk {
		t.Fatalf("limit = %d, want > %d after calm saturated windows", got, shrunk)
	}
}

func TestBrownoutLadderClimbsAndDescends(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{MaxLimit: 1, EvalWindow: 100 * time.Millisecond,
		QueueDeadline: [NumClasses]time.Duration{time.Minute, time.Minute, time.Minute, time.Minute},
		Clock:         clock})

	// One slot held and queueDepth waiters parked fill both the limiter
	// and the queue: every further arrival sheds on arrival.
	held := drainTicket(t, c, Interactive)
	var wg sync.WaitGroup
	parkWaiters(c, &wg, Background, queueDepth)
	waitFor(t, func() bool { return queuedLen(c) == queueDepth })

	for i := 0; i < 8; i++ {
		clock.Advance(110 * time.Millisecond)
		if _, err := c.Admit(context.Background(), Background, ""); err == nil {
			t.Fatal("expected shed under full limiter")
		}
	}
	if lvl := c.Level(); lvl == LevelFull {
		t.Fatalf("level = %v, want climbed", lvl)
	}
	held.Done()
	wg.Wait()

	// Calm windows descend back to full.
	for i := 0; i < 40 && c.Level() != LevelFull; i++ {
		clock.Advance(110 * time.Millisecond)
		tk, err := c.Admit(context.Background(), Critical, "")
		if err == nil {
			tk.Done()
		}
	}
	if lvl := c.Level(); lvl != LevelFull {
		t.Fatalf("level = %v, want LevelFull after calm", lvl)
	}
}

func TestBrownoutShedsByClass(t *testing.T) {
	c := New(Config{MaxLimit: 8})
	c.SetLevel(LevelEssential)
	if _, err := c.Admit(context.Background(), Background, ""); err != ErrShed {
		t.Fatalf("background at essential: err = %v, want ErrShed", err)
	}
	if tk, err := c.Admit(context.Background(), Write, ""); err != nil {
		t.Fatalf("write at essential: %v", err)
	} else {
		tk.Done()
	}

	c.SetLevel(LevelCriticalOnly)
	for _, class := range []Class{Interactive, Write, Background} {
		if _, err := c.Admit(context.Background(), class, ""); err != ErrShed {
			t.Fatalf("%v at critical-only: err = %v, want ErrShed", class, err)
		}
	}
	if tk, err := c.Admit(context.Background(), Critical, ""); err != nil {
		t.Fatalf("critical at critical-only: %v", err)
	} else {
		tk.Done()
	}
}

// TestConcurrentAdmitRace hammers every admission path from many
// goroutines so the race detector can inspect the locking. Every
// goroutine's first call arrives at a full queue and is shed on
// arrival; the rest run against the live limiter and its deadlines.
func TestConcurrentAdmitRace(t *testing.T) {
	const goroutines, calls = 16, 50
	c := New(Config{MaxLimit: 4,
		QueueDeadline: [NumClasses]time.Duration{
			20 * time.Millisecond, 10 * time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond},
		BucketRate: 500, BucketBurst: 50,
		EvalWindow: 5 * time.Millisecond, LatencyTarget: time.Millisecond})

	// Hold every slot and fill the critical queue with waiters no
	// goroutine owns: nothing can dispatch, so each first call (a
	// critical one, which no brownout level sheds) finds the queue full.
	held := make([]Ticket, c.Limit())
	for i := range held {
		held[i] = drainTicket(t, c, Interactive)
	}
	c.mu.Lock()
	for i := 0; i < queueDepth; i++ {
		c.queues[Critical] = append(c.queues[Critical], &waiter{class: Critical, ready: make(chan struct{})})
	}
	c.queued += queueDepth
	c.mu.Unlock()

	// The first call carries a cancelled context: one that queued would
	// return context.Canceled, so ErrShed means it was refused first.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var arrived, wg sync.WaitGroup
	start := make(chan struct{})
	firstErrs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		arrived.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			principal := ""
			if g%2 == 0 {
				principal = "10.0.0.1"
			}
			for i := 0; i < calls; i++ {
				ctx := context.Background()
				if i == 0 {
					ctx = cancelled
				}
				class := Class(i % int(NumClasses))
				tk, err := c.Admit(ctx, class, principal)
				if err == nil {
					time.Sleep(50 * time.Microsecond)
					tk.Done()
				}
				if i == 0 {
					firstErrs <- err
					arrived.Done()
					<-start
				}
			}
		}(g)
	}
	arrived.Wait()
	close(firstErrs)
	for err := range firstErrs {
		if err != ErrShed {
			t.Fatalf("first call at a full queue: err = %v, want ErrShed", err)
		}
	}
	c.mu.Lock()
	stillQueued := len(c.queues[Critical])
	// Drop the fillers uncounted: they were never Admit calls.
	c.queues[Critical] = nil
	c.queued -= queueDepth
	c.mu.Unlock()
	if stillQueued != queueDepth {
		t.Fatalf("critical queue = %d after the full-queue arrivals, want %d", stillQueued, queueDepth)
	}
	if got := c.Snapshot().Classes[Critical].Shed; got != goroutines {
		t.Fatalf("critical shed = %d, want %d, one per arrival at the full queue", got, goroutines)
	}
	for _, tk := range held {
		tk.Done()
	}
	close(start)

	wg.Wait()
	st := c.Snapshot()
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d after drain", st.Inflight)
	}
	var admitted, decided uint64
	for _, cc := range st.Classes {
		admitted += cc.Admitted
		decided += cc.Admitted + cc.Shed + cc.Throttled
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	// Every Admit call, the held ones included, ends admitted, shed or
	// throttled, and is counted once.
	if want := uint64(goroutines*calls + len(held)); decided != want {
		t.Fatalf("admitted+shed+throttled = %d, want %d Admit calls", decided, want)
	}
}

// TestDispatcherExpiryCountsOneShed replays a race Admit loses only
// rarely: the dispatcher expires a queued waiter, and in the same
// instant the waiter's own timer fires and wins its select. The shed
// is counted once, in the totals and in the ladder's pressure signal.
func TestDispatcherExpiryCountsOneShed(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{MaxLimit: 1, Clock: clock})
	held := drainTicket(t, c, Interactive)
	w := &waiter{class: Interactive, deadline: clock.Now().Add(time.Second), ready: make(chan struct{})}
	c.mu.Lock()
	c.queues[Interactive] = append(c.queues[Interactive], w)
	c.queued++
	c.mu.Unlock()

	clock.Advance(2 * time.Second)
	held.Done() // the dispatcher finds w past its deadline and sheds it
	if _, err := c.abandon(w, ErrShed); err != ErrShed {
		t.Fatalf("abandon err = %v, want ErrShed", err)
	}
	if got := c.Snapshot().Classes[Interactive].Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	c.mu.Lock()
	windowShed := c.windowShed
	c.mu.Unlock()
	if windowShed != 1 {
		t.Fatalf("window shed = %d, want 1", windowShed)
	}
}

func TestFractionalBucketRateAdmitsFirstRequest(t *testing.T) {
	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{BucketRate: 0.5, Clock: clock})
	tk, err := c.Admit(context.Background(), Interactive, "1.2.3.4")
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	tk.Done()
	if _, err := c.Admit(context.Background(), Interactive, "1.2.3.4"); err != ErrThrottled {
		t.Fatalf("second request: err = %v, want ErrThrottled", err)
	}
	clock.Advance(2 * time.Second)
	if tk, err := c.Admit(context.Background(), Interactive, "1.2.3.4"); err != nil {
		t.Fatalf("after refill: %v", err)
	} else {
		tk.Done()
	}
}

func TestDerivedLimits(t *testing.T) {
	if got := New(Config{MaxLimit: 1}).Limit(); got != 1 {
		t.Fatalf("MaxLimit 1: limit = %d, want 1", got)
	}

	clock := vclock.NewVirtual(vclock.Epoch)
	c := New(Config{MaxLimit: 256, LatencyTarget: time.Millisecond,
		EvalWindow: 100 * time.Millisecond, Clock: clock})
	if got := c.Limit(); got != 128 {
		t.Fatalf("MaxLimit 256: starting limit = %d, want 128", got)
	}
	// Every window runs hot, so each one shrinks the limit by a quarter
	// until it reaches the floor, and then holds it there.
	for i := 0; i < 30; i++ {
		tk := drainTicket(t, c, Interactive)
		clock.Advance(10 * time.Millisecond)
		tk.Done()
		clock.Advance(100 * time.Millisecond)
		if got := c.Limit(); got < 2 {
			t.Fatalf("window %d: limit = %d, below the floor of 2", i, got)
		}
	}
	if got := c.Limit(); got != 2 {
		t.Fatalf("limit after hot windows = %d, want 2", got)
	}
}

func TestClassAndLevelNames(t *testing.T) {
	wantClass := map[Class]string{Critical: "critical", Interactive: "interactive", Write: "write", Background: "background"}
	for c, name := range wantClass {
		if c.String() != name {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	wantLevel := map[Level]string{LevelFull: "full", LevelCacheOnly: "cache-only", LevelEssential: "essential", LevelCriticalOnly: "critical-only"}
	for l, name := range wantLevel {
		if l.String() != name {
			t.Fatalf("level %d.String() = %q, want %q", l, l.String(), name)
		}
	}
}
