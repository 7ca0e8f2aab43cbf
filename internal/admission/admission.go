// Package admission is the server's adaptive, priority-aware admission
// layer: the overload defence that replaces the static in-flight cap.
//
// The paper's stability argument (§4.2) assumes the reputation server
// stays answerable — the client's exec hook holds a frozen process on a
// lookup, and a critical system process must never stall behind a
// background feed poll. A fixed concurrency cap cannot express that: it
// sheds a critical lookup with the same 503 as a replication pull. This
// package classifies every request into one of four priority classes,
// runs them through an AIMD concurrency limiter driven by observed
// handler latency, parks the overflow in short deadline-aware bounded
// queues (highest class drains first; anything that cannot meet its
// deadline is rejected on arrival), throttles each principal with a
// token bucket so one abusive client cannot starve the fleet, and
// climbs a brownout ladder under sustained pressure so the work that is
// still admitted gets cheaper instead of everything falling off a
// cliff.
//
// Shed responses are deliberate and the server is alive when it sends
// them: callers map admission errors to 429 + Retry-After, which
// clients retry with backoff — distinct from 503 (draining, fail over
// now). The resilience layer's circuit breaker does not count 429
// sheds as failures.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"

	"softreputation/internal/vclock"
)

// Class is a request's priority class. Lower values are more
// important: a critical-process lookup outranks an interactive lookup,
// which outranks writes, which outrank background traffic.
type Class int

// Priority classes, most important first.
const (
	// Critical is a lookup holding a frozen critical system process;
	// shedding one risks host stability (§4.2).
	Critical Class = iota
	// Interactive is an ordinary lookup holding a frozen user process.
	Interactive
	// Write covers votes, remarks, registration, login: valuable, but a
	// human is waiting at most seconds, not a frozen process.
	Write
	// Background covers feed polls, stats, replication pulls, the web
	// view: work that tolerates arbitrary delay.
	Background
	// NumClasses is the number of priority classes.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Interactive:
		return "interactive"
	case Write:
		return "write"
	case Background:
		return "background"
	}
	return "unknown"
}

// Level is a rung of the brownout ladder. Higher levels shed more work
// and make the remaining work cheaper.
type Level int

// Brownout levels, in climbing order.
const (
	// LevelFull serves everything: full reports, all classes admitted.
	LevelFull Level = iota
	// LevelCacheOnly serves lookups out of the report cache; misses get
	// a lean report (no comments, no feed advice) that is not cached.
	LevelCacheOnly
	// LevelEssential additionally sheds the background class outright.
	LevelEssential
	// LevelCriticalOnly admits only critical-class lookups.
	LevelCriticalOnly
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelFull:
		return "full"
	case LevelCacheOnly:
		return "cache-only"
	case LevelEssential:
		return "essential"
	case LevelCriticalOnly:
		return "critical-only"
	}
	return "unknown"
}

// Shed errors. Both map to 429 + Retry-After on the wire.
var (
	// ErrShed reports that the limiter could not admit the request in
	// time: the queue was full, the deadline unmeetable, or the class is
	// browned out.
	ErrShed = errors.New("admission: overloaded, request shed")
	// ErrThrottled reports that the principal exhausted its token
	// bucket.
	ErrThrottled = errors.New("admission: principal over rate budget")
)

// Config tunes a Controller. The zero value selects workable defaults.
type Config struct {
	// MinLimit and MaxLimit bound the adaptive concurrency limit;
	// defaults 2 and 256. InitialLimit is the starting point, default
	// MaxLimit/2.
	MinLimit, MaxLimit, InitialLimit int
	// LatencyTarget is the handler latency the limiter steers toward:
	// when a window's mean admitted latency exceeds it, the limit
	// shrinks multiplicatively; while latency holds and the limit is
	// saturated, it grows additively. Default 50ms.
	LatencyTarget time.Duration
	// QueueDepth bounds each class's wait queue; default 64.
	QueueDepth int
	// QueueDeadline is each class's maximum queue wait; a request whose
	// projected wait exceeds it is rejected on arrival, and a queued
	// request past it is shed. Zero entries get defaults (critical 1s,
	// interactive 500ms, write 250ms, background 100ms).
	QueueDeadline [NumClasses]time.Duration
	// BucketRate and BucketBurst configure the per-principal token
	// buckets (requests/second and burst size); BucketRate 0 disables
	// throttling.
	BucketRate, BucketBurst float64
	// EvalWindow is the AIMD and brownout evaluation period; default
	// 250ms.
	EvalWindow time.Duration
	// PressureShedFrac is the windowed shed fraction that counts as
	// overload pressure for the brownout ladder; default 0.05.
	PressureShedFrac float64
	// ClimbWindows pressured windows in a row climb one brownout level;
	// CalmWindows calm windows in a row descend one. Defaults 2 and 4.
	ClimbWindows, CalmWindows int
	// Clock is the time source; nil selects the wall clock. Queue
	// waiting always happens on wall time — a virtual clock affects
	// only latency and window bookkeeping (deterministic tests).
	Clock vclock.Clock
}

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.MinLimit <= 0 {
		cfg.MinLimit = 2
	}
	if cfg.MaxLimit <= 0 {
		cfg.MaxLimit = 256
	}
	if cfg.MaxLimit < cfg.MinLimit {
		cfg.MaxLimit = cfg.MinLimit
	}
	if cfg.InitialLimit <= 0 {
		cfg.InitialLimit = cfg.MaxLimit / 2
	}
	if cfg.InitialLimit < cfg.MinLimit {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.LatencyTarget <= 0 {
		cfg.LatencyTarget = 50 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	defaults := [NumClasses]time.Duration{
		Critical:    time.Second,
		Interactive: 500 * time.Millisecond,
		Write:       250 * time.Millisecond,
		Background:  100 * time.Millisecond,
	}
	for c := range cfg.QueueDeadline {
		if cfg.QueueDeadline[c] <= 0 {
			cfg.QueueDeadline[c] = defaults[c]
		}
	}
	if cfg.BucketBurst <= 0 {
		cfg.BucketBurst = cfg.BucketRate
	}
	if cfg.EvalWindow <= 0 {
		cfg.EvalWindow = 250 * time.Millisecond
	}
	if cfg.PressureShedFrac <= 0 {
		cfg.PressureShedFrac = 0.05
	}
	if cfg.ClimbWindows <= 0 {
		cfg.ClimbWindows = 2
	}
	if cfg.CalmWindows <= 0 {
		cfg.CalmWindows = 4
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	return cfg
}

// ClassCounters is one class's admit/shed tally.
type ClassCounters struct {
	// Admitted counts requests that got a concurrency slot.
	Admitted uint64
	// Shed counts requests rejected by the limiter: queue full,
	// deadline unmeetable, queue wait expired, or browned out.
	Shed uint64
	// Throttled counts requests rejected by a principal's token bucket.
	Throttled uint64
	// Queued counts admitted requests that had to wait in the queue
	// first.
	Queued uint64
}

// Status is a snapshot of the controller.
type Status struct {
	// Limit is the limiter's current concurrency estimate.
	Limit int
	// Inflight is how many requests currently hold a slot.
	Inflight int
	// Level is the current brownout level.
	Level Level
	// Classes holds the per-class counters, indexed by Class.
	Classes [NumClasses]ClassCounters
}

// waiter is one request parked in a class queue.
type waiter struct {
	class    Class
	deadline time.Time
	ready    chan struct{}
	// admitted and dropped are owned by the controller lock: exactly
	// one transition happens (dispatch admits, expiry or the waiter's
	// own timeout drops).
	admitted bool
	dropped  bool
}

// bucket is one principal's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxPrincipals bounds the bucket map; overflow resets it, giving every
// principal a fresh burst — conservative in the abusive client's
// favour, but bounded in memory.
const maxPrincipals = 8192

// Controller is the admission layer. It is safe for concurrent use.
type Controller struct {
	cfg   Config
	clock vclock.Clock

	mu       sync.Mutex
	limit    int
	inflight int
	queues   [NumClasses][]*waiter
	queued   int
	level    Level
	classes  [NumClasses]ClassCounters

	// AIMD + brownout window state.
	windowStart     time.Time
	windowLatSum    time.Duration
	windowLatN      int
	windowSaturated bool
	windowAdmitted  uint64
	windowShed      uint64
	pressureStreak  int
	calmStreak      int

	// latEWMA is the smoothed admitted-request latency used to project
	// queue waits.
	latEWMA time.Duration

	buckets map[string]*bucket
}

// New creates a controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:     cfg,
		clock:   cfg.Clock,
		limit:   cfg.InitialLimit,
		buckets: make(map[string]*bucket),
	}
	c.windowStart = c.clock.Now()
	return c
}

// Ticket is an admitted request's slot, a value so that admitting costs
// no allocation; Done must be called exactly once, on the value Admit
// returned, when the request's handler finishes. The zero Ticket's Done
// does nothing.
type Ticket struct {
	c     *Controller
	class Class
	start time.Time
}

// Done releases the slot, records the observed handler latency, and
// dispatches queued waiters.
func (t *Ticket) Done() {
	if t.c == nil {
		return
	}
	c := t.c
	now := c.clock.Now()
	lat := now.Sub(t.start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight--
	c.windowLatSum += lat
	c.windowLatN++
	if c.latEWMA == 0 {
		c.latEWMA = lat
	} else {
		c.latEWMA = (c.latEWMA*7 + lat) / 8
	}
	c.rollWindowLocked(now)
	c.dispatchLocked(now)
	t.c = nil
}

// Admit asks for a concurrency slot for one request. It returns a
// Ticket when admitted (possibly after queueing), ErrShed when the
// limiter rejects the request, ErrThrottled when the principal is over
// its rate budget, or ctx.Err() when the caller gave up first.
// principal may be empty (no bucket applies).
func (c *Controller) Admit(ctx context.Context, class Class, principal string) (Ticket, error) {
	now := c.clock.Now()
	c.mu.Lock()
	c.rollWindowLocked(now)
	// A window roll can raise the limit without a completion to trigger
	// dispatch; drain the queue into any freed slots before judging
	// this arrival.
	c.dispatchLocked(now)

	if principal != "" && c.cfg.BucketRate > 0 && !c.takeTokenLocked(principal, now) {
		c.classes[class].Throttled++
		c.mu.Unlock()
		return Ticket{}, ErrThrottled
	}
	if c.brownedOutLocked(class) {
		c.classes[class].Shed++
		c.windowShed++
		c.mu.Unlock()
		return Ticket{}, ErrShed
	}
	if c.inflight < c.limit && c.queued == 0 {
		c.inflight++
		c.classes[class].Admitted++
		c.windowAdmitted++
		if c.inflight >= c.limit {
			c.windowSaturated = true
		}
		c.mu.Unlock()
		return Ticket{c: c, class: class, start: now}, nil
	}
	c.windowSaturated = true

	// The limiter is full: queue, unless the wait is hopeless. The
	// projected wait assumes every waiter of equal or higher priority
	// drains ahead of us at the smoothed per-slot service rate.
	deadline := now.Add(c.cfg.QueueDeadline[class])
	if len(c.queues[class]) >= c.cfg.QueueDepth {
		c.classes[class].Shed++
		c.windowShed++
		c.mu.Unlock()
		return Ticket{}, ErrShed
	}
	if c.latEWMA > 0 && c.limit > 0 {
		ahead := 0
		for cl := Critical; cl <= class; cl++ {
			ahead += len(c.queues[cl])
		}
		projected := time.Duration(ahead+1) * c.latEWMA / time.Duration(c.limit)
		if projected > c.cfg.QueueDeadline[class] {
			c.classes[class].Shed++
			c.windowShed++
			c.mu.Unlock()
			return Ticket{}, ErrShed
		}
	}
	w := &waiter{class: class, deadline: deadline, ready: make(chan struct{})}
	c.queues[class] = append(c.queues[class], w)
	c.queued++
	c.mu.Unlock()

	// Queue waiting is wall-time: the deadline timer must fire even
	// when nothing else is happening.
	timer := time.NewTimer(c.cfg.QueueDeadline[class])
	defer timer.Stop()
	select {
	case <-w.ready:
		// Dispatched (admitted) or expired by the dispatcher; admitted
		// tells which.
		c.mu.Lock()
		admitted := w.admitted
		c.mu.Unlock()
		if admitted {
			return Ticket{c: c, class: class, start: c.clock.Now()}, nil
		}
		return Ticket{}, ErrShed
	case <-timer.C:
		return c.abandon(w, ErrShed)
	case <-ctx.Done():
		return c.abandon(w, ctx.Err())
	}
}

// abandon removes a waiter that gave up (deadline or context). The
// dispatcher may have admitted it concurrently — then the slot is
// already ours and must be used, not leaked.
func (c *Controller) abandon(w *waiter, err error) (Ticket, error) {
	c.mu.Lock()
	if w.admitted {
		c.mu.Unlock()
		return Ticket{c: c, class: w.class, start: c.clock.Now()}, nil
	}
	w.dropped = true
	c.classes[w.class].Shed++
	c.windowShed++
	c.removeLocked(w)
	c.mu.Unlock()
	return Ticket{}, err
}

// removeLocked deletes a dropped waiter from its queue.
func (c *Controller) removeLocked(w *waiter) {
	q := c.queues[w.class]
	for i, x := range q {
		if x == w {
			c.queues[w.class] = append(q[:i], q[i+1:]...)
			c.queued--
			return
		}
	}
}

// dispatchLocked hands freed slots to queued waiters, highest priority
// first, shedding the expired along the way. Caller holds mu.
func (c *Controller) dispatchLocked(now time.Time) {
	for c.inflight < c.limit && c.queued > 0 {
		var w *waiter
		for cl := Critical; cl < NumClasses; cl++ {
			for len(c.queues[cl]) > 0 {
				head := c.queues[cl][0]
				c.queues[cl] = c.queues[cl][1:]
				c.queued--
				if now.After(head.deadline) {
					head.dropped = true
					c.classes[cl].Shed++
					c.windowShed++
					close(head.ready)
					continue
				}
				w = head
				break
			}
			if w != nil {
				break
			}
		}
		if w == nil {
			return
		}
		w.admitted = true
		c.inflight++
		c.classes[w.class].Admitted++
		c.classes[w.class].Queued++
		c.windowAdmitted++
		close(w.ready)
	}
}

// takeTokenLocked spends one token from principal's bucket, refilling
// by elapsed time first. Caller holds mu.
func (c *Controller) takeTokenLocked(principal string, now time.Time) bool {
	b, ok := c.buckets[principal]
	if !ok {
		if len(c.buckets) >= maxPrincipals {
			c.buckets = make(map[string]*bucket)
		}
		b = &bucket{tokens: c.cfg.BucketBurst, last: now}
		c.buckets[principal] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * c.cfg.BucketRate
	b.last = now
	if b.tokens > c.cfg.BucketBurst {
		b.tokens = c.cfg.BucketBurst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// brownedOutLocked reports whether the current level sheds this class
// outright. Caller holds mu.
func (c *Controller) brownedOutLocked(class Class) bool {
	switch {
	case c.level >= LevelCriticalOnly:
		return class != Critical
	case c.level >= LevelEssential:
		return class == Background
	}
	return false
}

// rollWindowLocked closes evaluation windows that have elapsed: the
// AIMD step adjusts the concurrency limit from the window's observed
// latency, and the brownout ladder climbs or descends from the
// window's shed pressure. Caller holds mu.
func (c *Controller) rollWindowLocked(now time.Time) {
	if now.Sub(c.windowStart) < c.cfg.EvalWindow {
		return
	}

	// AIMD: multiplicative decrease when the window ran hot, additive
	// increase while latency holds and the limit was actually reached.
	if c.windowLatN > 0 {
		mean := c.windowLatSum / time.Duration(c.windowLatN)
		if mean > c.cfg.LatencyTarget {
			c.limit = c.limit * 3 / 4
			if c.limit < c.cfg.MinLimit {
				c.limit = c.cfg.MinLimit
			}
		} else if c.windowSaturated && c.limit < c.cfg.MaxLimit {
			c.limit++
		}
	}

	// Brownout ladder: sustained shedding climbs, sustained calm
	// descends — one rung per evaluation, with hysteresis from the
	// streak counters.
	total := c.windowAdmitted + c.windowShed
	pressured := total > 0 && float64(c.windowShed)/float64(total) >= c.cfg.PressureShedFrac
	if pressured {
		c.pressureStreak++
		c.calmStreak = 0
		if c.pressureStreak >= c.cfg.ClimbWindows && c.level < LevelCriticalOnly {
			c.level++
			c.pressureStreak = 0
		}
	} else {
		c.calmStreak++
		c.pressureStreak = 0
		if c.calmStreak >= c.cfg.CalmWindows && c.level > LevelFull {
			c.level--
			c.calmStreak = 0
		}
	}

	c.windowStart = now
	c.windowLatSum = 0
	c.windowLatN = 0
	c.windowSaturated = false
	c.windowAdmitted = 0
	c.windowShed = 0
}

// Level returns the current brownout level.
func (c *Controller) Level() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rollWindowLocked(c.clock.Now())
	return c.level
}

// SetLevel forces the brownout level; the ladder adjusts from there.
// Test seam: only sustained pressure moves the ladder to a level.
func (c *Controller) SetLevel(l Level) {
	if l < LevelFull {
		l = LevelFull
	}
	if l > LevelCriticalOnly {
		l = LevelCriticalOnly
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.level = l
	c.pressureStreak = 0
	c.calmStreak = 0
}

// Limit returns the limiter's current concurrency estimate, rolling
// any elapsed evaluation window first.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rollWindowLocked(c.clock.Now())
	return c.limit
}

// Snapshot returns the controller's counters and state.
func (c *Controller) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Limit:    c.limit,
		Inflight: c.inflight,
		Level:    c.level,
		Classes:  c.classes,
	}
}
