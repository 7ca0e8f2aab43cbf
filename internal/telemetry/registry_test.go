package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exposition format byte for byte: a
// scraper-compatible text form is the contract of /metrics.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app_requests_total", "Requests served.", Labels{{"endpoint", "lookup"}, {"code", "2xx"}})
	c.Add(41)
	c.Inc()
	reg.Counter("app_requests_total", "Requests served.", Labels{{"endpoint", "lookup"}, {"code", "5xx"}}).Inc()
	reg.GaugeFunc("app_inflight", "Requests in flight.", nil, func() float64 { return 3 })
	reg.GaugeFunc("app_limit", "Concurrency limit.", nil, func() float64 { return 17.5 })
	reg.CounterFunc("app_sheds_total", "Requests shed.", nil, func() uint64 { return 9 })
	h := reg.Histogram("app_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}, L("endpoint", "lookup"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{endpoint="lookup",code="2xx"} 42
app_requests_total{endpoint="lookup",code="5xx"} 1
# HELP app_inflight Requests in flight.
# TYPE app_inflight gauge
app_inflight 3
# HELP app_limit Concurrency limit.
# TYPE app_limit gauge
app_limit 17.5
# HELP app_sheds_total Requests shed.
# TYPE app_sheds_total counter
app_sheds_total 9
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{endpoint="lookup",le="0.01"} 1
app_latency_seconds_bucket{endpoint="lookup",le="0.1"} 3
app_latency_seconds_bucket{endpoint="lookup",le="1"} 3
app_latency_seconds_bucket{endpoint="lookup",le="+Inf"} 4
app_latency_seconds_sum{endpoint="lookup"} 5.105
app_latency_seconds_count{endpoint="lookup"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketMath checks the le-inclusive bucket rule and the
// cumulative rendering against hand-counted observations.
func TestHistogramBucketMath(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("m_seconds", "h.", []float64{1, 2, 4}, nil)
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 8, 100} {
		h.Observe(v)
	}
	// Raw (non-cumulative) per-bucket expectation: <=1: {0.5, 1} = 2;
	// (1,2]: {1.0000001, 2} = 2; (2,4]: {3,4} = 2; +Inf: {8,100} = 2.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`m_seconds_bucket{le="1"} 2`,
		`m_seconds_bucket{le="2"} 4`,
		`m_seconds_bucket{le="4"} 6`,
		`m_seconds_bucket{le="+Inf"} 8`,
		`m_seconds_count 8`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), 119.5000001; got < want-0.001 || got > want+0.001 {
		t.Errorf("Sum = %v, want ~%v", got, want)
	}
}

// TestConcurrentCounters hammers one counter and one histogram from
// many goroutines; run under -race this is the data-race proof, and
// the totals prove no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races with registration: every worker asks for
			// the same series and must get the same cells.
			c := reg.Counter("c_total", "c.", nil)
			h := reg.Histogram("h_seconds", "h.", []float64{0.5}, nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "c.", nil).Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Histogram("h_seconds", "h.", nil, nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestLint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ok_total", "fine.", L("class", "write"))
	reg.GaugeFunc("ok_gauge", "fine.", nil, func() float64 { return 0 })
	reg.Histogram("ok_seconds", "fine.", DefaultLatencyBuckets, nil)
	if problems := reg.Lint(); len(problems) != 0 {
		t.Fatalf("clean registry flagged: %v", problems)
	}

	bad := NewRegistry()
	bad.Counter("bad-name", "x.", nil)                // invalid metric name + not *_total
	bad.Counter("nohelp_total", "", nil)              // missing help
	bad.Counter("badlabel_total", "x.", L("0c", "v")) // invalid label name
	bad.Histogram("nobuckets_seconds", "x.", nil, nil)
	problems := bad.Lint()
	wantFrags := []string{"invalid metric name", "missing help", "invalid label name", "no buckets"}
	for _, frag := range wantFrags {
		found := false
		for _, p := range problems {
			if strings.Contains(p, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("lint missed %q; got %v", frag, problems)
		}
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two IDs collided: %s", a)
	}
	if len(a) != 2*RequestIDBytes || !ValidRequestID(a) {
		t.Fatalf("ID %q not valid", a)
	}
	for id, want := range map[string]bool{
		"abc-123_X.9":           true,
		"":                      false,
		"has space":             false,
		`inj="x`:                false,
		strings.Repeat("a", 65): false,
		strings.Repeat("a", 64): true,
	} {
		// Both forms: a header value, and a session call's bytes.
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
		if got := ValidRequestID([]byte(id)); got != want {
			t.Errorf("ValidRequestID([]byte(%q)) = %v, want %v", id, got, want)
		}
	}
}
