package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// Tests for the adaptive admission layer's HTTP integration: request
// classification, the brownout ladder's effect on responses, the lean
// report path, and the admission state and counts on /healthz and
// /metrics.

// newAdmissionFixture builds an HTTP fixture with admission control on
// and the evaluation window frozen, so forced brownout levels stay put
// for the duration of a test.
func newAdmissionFixture(t *testing.T, mutate func(*Config)) *httpFixture {
	t.Helper()
	return newHTTPFixtureWith(t, func(cfg *Config) {
		cfg.AdmissionControl = true
		cfg.Admission.EvalWindow = time.Hour
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func TestClassifyRequest(t *testing.T) {
	cases := []struct {
		path     string
		priority string
		want     admission.Class
	}{
		{wire.PathLookup, "", admission.Interactive},
		{wire.PathLookup, wire.PriorityCritical, admission.Critical},
		{wire.PathLookup, wire.PriorityBackground, admission.Background},
		{wire.PathVendor, "", admission.Interactive},
		{wire.PathVote, "", admission.Write},
		// The critical marker only raises lookups: a vote can never
		// claim a frozen critical process.
		{wire.PathVote, wire.PriorityCritical, admission.Write},
		{wire.PathLogin, "", admission.Write},
		{wire.PathRegister, "", admission.Write},
		{wire.PathStats, "", admission.Background},
		{wire.PathReplWAL, "", admission.Background},
		{"/", "", admission.Background},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, tc.path, nil)
		if tc.priority != "" {
			r.Header.Set(wire.HeaderPriority, tc.priority)
		}
		if got := classifyRequest(r); got != tc.want {
			t.Errorf("classifyRequest(%s, priority=%q) = %v, want %v", tc.path, tc.priority, got, tc.want)
		}
	}
}

// postWithPriority sends a lookup with a priority header and returns
// the raw HTTP response.
func (f *httpFixture) postWithPriority(path, priority string, req interface{}) *http.Response {
	f.t.Helper()
	var buf bytes.Buffer
	if err := wire.Encode(&buf, req); err != nil {
		f.t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, f.ts.URL+path, &buf)
	if err != nil {
		f.t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", wire.ContentType)
	if priority != "" {
		httpReq.Header.Set(wire.HeaderPriority, priority)
	}
	resp, err := f.client.Do(httpReq)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp
}

func TestBrownoutCriticalOnlySheds429(t *testing.T) {
	f := newAdmissionFixture(t, nil)
	f.srv.Admission().SetLevel(admission.LevelCriticalOnly)

	// Background traffic is shed with 429 + Retry-After + overloaded.
	resp, err := f.client.Get(f.ts.URL + wire.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stats status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var werr wire.ErrorResponse
	if err := wire.Decode(resp.Body, &werr); err != nil {
		t.Fatalf("shed body: %v", err)
	}
	if werr.Code != wire.CodeOverloaded {
		t.Fatalf("code = %q, want %q", werr.Code, wire.CodeOverloaded)
	}

	// A critical-priority lookup still gets through.
	look := f.postWithPriority(wire.PathLookup, wire.PriorityCritical,
		wire.LookupRequest{Software: wireMeta(41)})
	defer look.Body.Close()
	if look.StatusCode != http.StatusOK {
		t.Fatalf("critical lookup status = %d, want 200", look.StatusCode)
	}

	// An ordinary lookup does not.
	plain := f.postWithPriority(wire.PathLookup, "",
		wire.LookupRequest{Software: wireMeta(41)})
	defer plain.Body.Close()
	if plain.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("plain lookup status = %d, want 429", plain.StatusCode)
	}

	// Healthz stays observable while everything else is shed.
	var hz wire.HealthzResponse
	if err := f.get(wire.PathHealthz, &hz); err != nil {
		t.Fatalf("healthz during brownout: %v", err)
	}
	if hz.Brownout != admission.LevelCriticalOnly.String() {
		t.Fatalf("healthz brownout = %q, want %q", hz.Brownout, admission.LevelCriticalOnly)
	}

	// Recovery restores service.
	f.srv.Admission().SetLevel(admission.LevelFull)
	if err := f.get(wire.PathStats, &wire.StatsResponse{}); err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
}

func TestBrownoutLeanReports(t *testing.T) {
	f := newAdmissionFixture(t, nil)
	session := f.signupOverHTTP("alice")

	meta := wireMeta(7)
	if err := f.post(wire.PathVote, wire.VoteRequest{
		Session: session, Software: meta, Score: 8,
		Behaviors: core.BehaviorDisplaysAds.String(),
		Comment:   "works fine, shows ads",
	}, &wire.VoteResponse{}); err != nil {
		t.Fatal(err)
	}

	// Under LevelCacheOnly a cache miss gets a lean report: known, but
	// no comments.
	f.srv.Admission().SetLevel(admission.LevelCacheOnly)
	lean := f.lookup(meta)
	if !lean.Known {
		t.Fatal("lean report lost the Known flag")
	}
	if len(lean.Comments) != 0 {
		t.Fatalf("lean report carries %d comments, want 0", len(lean.Comments))
	}

	// The lean bytes must not have been cached: back at LevelFull the
	// same request gets the full report, comment included.
	f.srv.Admission().SetLevel(admission.LevelFull)
	full := f.lookup(meta)
	if len(full.Comments) != 1 {
		t.Fatalf("post-brownout report carries %d comments, want 1", len(full.Comments))
	}

	// A report cached before the brownout keeps serving during it: the
	// hit is cheap, only misses go lean.
	f.srv.Admission().SetLevel(admission.LevelCacheOnly)
	cached := f.lookup(meta)
	if len(cached.Comments) != 1 {
		t.Fatalf("cached report during brownout carries %d comments, want 1", len(cached.Comments))
	}
}

// TestHealthzReportsAdmission: /healthz names the brownout level, and
// the limiter's estimate and the per-class counts are on /metrics.
func TestHealthzReportsAdmission(t *testing.T) {
	f := newAdmissionFixture(t, nil)
	f.lookup(wireMeta(3))

	var hz wire.HealthzResponse
	if err := f.get(wire.PathHealthz, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Brownout != admission.LevelFull.String() {
		t.Fatalf("brownout = %q, want %q", hz.Brownout, admission.LevelFull)
	}
	metrics := getMetrics(t, f.ts.URL)
	if limit, _ := telemetry.Sum(metrics, "reputation_admission_limit", nil); limit <= 0 {
		t.Fatalf("admission limit = %v, want > 0", limit)
	}
	for cl := admission.Critical; cl < admission.NumClasses; cl++ {
		admitted, ok := telemetry.Sum(metrics, "reputation_admission_requests_total",
			telemetry.Labels{{"class", cl.String()}, {"outcome", "admitted"}})
		if !ok || (cl == admission.Interactive && admitted == 0) {
			t.Fatalf("%s admitted = %v (found %v)", cl, admitted, ok)
		}
	}
}

func TestAdmissionThrottlesPrincipal(t *testing.T) {
	f := newAdmissionFixture(t, func(cfg *Config) {
		cfg.Admission.BucketRate = 0.001 // effectively no refill in-test
		cfg.Admission.BucketBurst = 2
	})

	var last *http.Response
	for i := 0; i < 3; i++ {
		resp, err := f.client.Get(f.ts.URL + wire.PathStats)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		last = resp
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request from one principal = %d, want 429", last.StatusCode)
	}
	st := f.srv.Admission().Snapshot()
	if st.Classes[admission.Background].Throttled == 0 {
		t.Fatal("throttled counter did not move")
	}
}

// admissionQueueDepth is the admission package's fixed per-class queue
// depth.
const admissionQueueDepth = 64

func TestAdmissionConcurrentHTTP(t *testing.T) {
	// Exercise the full HTTP admission path concurrently (for -race).
	// First, with every slot held, more critical lookups arrive at once
	// than the queue holds: the queue takes admissionQueueDepth of them
	// and the rest get 429 on arrival. Then mixed classes run against
	// the small limit — outcomes may be 200 or 429, never anything else.
	f := newAdmissionFixture(t, func(cfg *Config) {
		cfg.Admission.MaxLimit = 4
		// The parked lookups must outlast any scheduling delay.
		cfg.Admission.QueueDeadline[admission.Critical] = time.Minute
	})
	send := func(path, priority string, i int) (int, error) {
		var resp *http.Response
		var err error
		if path == wire.PathLookup {
			var buf bytes.Buffer
			if err = wire.Encode(&buf, wire.LookupRequest{Software: wireMeta(byte(i))}); err != nil {
				return 0, err
			}
			req, rerr := http.NewRequest(http.MethodPost, f.ts.URL+path, &buf)
			if rerr != nil {
				return 0, rerr
			}
			req.Header.Set("Content-Type", wire.ContentType)
			if priority != "" {
				req.Header.Set(wire.HeaderPriority, priority)
			}
			resp, err = f.client.Do(req)
		} else {
			resp, err = f.client.Get(f.ts.URL + path)
		}
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	ctrl := f.srv.Admission()
	held := make([]admission.Ticket, ctrl.Limit())
	for i := range held {
		tk, err := ctrl.Admit(context.Background(), admission.Interactive, "")
		if err != nil {
			t.Fatalf("holding slot %d: %v", i, err)
		}
		held[i] = tk
	}
	// Released early on failure too, so the queued lookups drain before
	// the server closes; Done twice is a no-op.
	t.Cleanup(func() {
		for i := range held {
			held[i].Done()
		}
	})
	const extra = 8
	type result struct {
		code int
		err  error
	}
	results := make(chan result, admissionQueueDepth+extra)
	for i := 0; i < admissionQueueDepth+extra; i++ {
		go func(i int) {
			code, err := send(wire.PathLookup, wire.PriorityCritical, i)
			results <- result{code, err}
		}(i)
	}
	next := func() result {
		select {
		case r := <-results:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("no answer within 10s")
			return result{}
		}
	}
	// Nothing is dispatched while the slots are held, so the only
	// answers before the release are the arrivals the full queue shed.
	for i := 0; i < extra; i++ {
		if r := next(); r.err != nil || r.code != http.StatusTooManyRequests {
			t.Fatalf("answer %d with every slot held: %d, %v; want 429 from the full queue", i, r.code, r.err)
		}
	}
	for i := range held {
		held[i].Done()
	}
	for i := 0; i < admissionQueueDepth; i++ {
		if r := next(); r.err != nil || r.code != http.StatusOK {
			t.Fatalf("queued lookup %d: %d, %v; want 200", i, r.code, r.err)
		}
	}
	if got := ctrl.Snapshot().Classes[admission.Critical].Shed; got != extra {
		t.Fatalf("critical shed = %d, want %d", got, extra)
	}

	paths := []struct {
		path     string
		priority string
	}{
		{wire.PathStats, ""},
		{wire.PathLookup, ""},
		{wire.PathLookup, wire.PriorityCritical},
		{wire.PathLookup, wire.PriorityBackground},
	}
	done := make(chan error, 32)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var firstErr error
			for i := 0; i < 10 && firstErr == nil; i++ {
				p := paths[(g+i)%len(paths)]
				code, err := send(p.path, p.priority, i)
				switch {
				case err != nil:
					firstErr = err
				case code != http.StatusOK && code != http.StatusTooManyRequests:
					firstErr = errors.New(http.StatusText(code))
				}
			}
			done <- firstErr
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("unexpected response: %v", err)
		}
	}
}
