// Package telemetry is the runtime instrumentation layer: atomic
// counters, sampled gauges, and fixed-bucket latency histograms
// collected in a named Registry and exposed in the Prometheus text
// format; a leveled key=value structured logger; per-request IDs; and a
// ring-buffer trace of recent slow or errored requests. It is
// dependency-free and built for hot paths — recording a counter is one
// atomic add, a histogram observation two, and everything sampled from
// existing stats structs is bridged through CounterFunc/GaugeFunc
// closures that cost nothing until a scrape reads them.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed cumulative-style buckets.
// Buckets are upper bounds in ascending order; every histogram has an
// implicit +Inf bucket. The sum is kept in nanoseconds-of-a-unit
// precision (the value times 1e9, accumulated as an integer) so
// concurrent observers need no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf bucket
	sum    atomic.Int64    // value * 1e9, summed
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(int64(v * 1e9))
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e9 }

// DefaultLatencyBuckets are the request-latency bounds, in seconds:
// from 100µs (a cache-hit lookup) to 2.5s (a timed-out handler).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metricKind discriminates the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels  string // rendered {k="v",...} or ""
	counter *Counter
	hist    *Histogram
	cfn     func() uint64
	gfn     func() float64
}

// family is one named metric with its help text and series.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use; registration
// of an existing (name, labels) pair returns the existing metric, so
// instrumented code never needs init-order coordination.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Labels is an ordered label set; render order is the given order.
type Labels [][2]string

// L is shorthand for a one-pair label set.
func L(k, v string) Labels { return Labels{{k, v}} }

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString("=\"")
		b.WriteString(escapeLabelValue(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

func (f *family) seriesFor(labels string) (*series, bool) {
	s, ok := f.byKey[labels]
	if !ok {
		s = &series{labels: labels}
		f.byKey[labels] = s
		f.series = append(f.series, s)
	}
	return s, ok
}

// Counter registers (or returns) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	s, existed := f.seriesFor(renderLabels(labels))
	if !existed {
		s.counter = new(Counter)
	}
	return s.counter
}

// CounterFunc registers a counter sampled from fn at collection time —
// the bridge for subsystems that already keep atomic counters. The
// function must be monotonic and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindCounter)
	s, _ := f.seriesFor(renderLabels(labels))
	s.cfn = fn
}

// GaugeFunc registers a gauge sampled from fn at collection time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindGauge)
	s, _ := f.seriesFor(renderLabels(labels))
	s.gfn = fn
}

// Histogram registers (or returns) a histogram series over the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kindHistogram)
	s, existed := f.seriesFor(renderLabels(labels))
	if !existed {
		bounds := append([]float64(nil), buckets...)
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return s.hist
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series in registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		r.mu.Lock()
		ser := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range ser {
			switch {
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.cfn != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.cfn())
			case s.gfn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gfn()))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines with le bounds, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
	var cum uint64
	for i, bound := range s.hist.bounds {
		cum += s.hist.counts[i].Load()
		writeBucket(b, name, inner, formatFloat(bound), cum)
	}
	cum += s.hist.counts[len(s.hist.bounds)].Load()
	writeBucket(b, name, inner, "+Inf", cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(s.hist.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, s.hist.Count())
}

func writeBucket(b *strings.Builder, name, innerLabels, le string, cum uint64) {
	if innerLabels == "" {
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
		return
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, innerLabels, le, cum)
}

var (
	validMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	validLabelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	labelPair       = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*|[^=,{}]+)="`)
)

// Lint checks the registry against the exposition rules the Prometheus
// scraper enforces, plus house rules: metric and label names must be
// valid, help text must be present, histograms must have at least one
// bucket, counter families should end in _total, and no series may be
// empty (a registered family with a func-less, metric-less series is a
// wiring bug). It returns every problem found.
//
// Test seam: `make metrics-lint` runs it over the server's full
// registration; the daemon serves what it registered without checking.
func (r *Registry) Lint() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var problems []string
	for _, name := range r.order {
		f := r.families[name]
		if !validMetricName.MatchString(f.name) {
			problems = append(problems, fmt.Sprintf("%s: invalid metric name", f.name))
		}
		if strings.TrimSpace(f.help) == "" {
			problems = append(problems, fmt.Sprintf("%s: missing help text", f.name))
		}
		if f.kind == kindCounter && !strings.HasSuffix(f.name, "_total") {
			problems = append(problems, fmt.Sprintf("%s: counter not named *_total", f.name))
		}
		for _, s := range f.series {
			for _, m := range labelPair.FindAllStringSubmatch(s.labels, -1) {
				if !validLabelName.MatchString(m[1]) {
					problems = append(problems, fmt.Sprintf("%s%s: invalid label name %q", f.name, s.labels, m[1]))
				}
			}
			if s.hist != nil && len(s.hist.bounds) == 0 {
				problems = append(problems, fmt.Sprintf("%s%s: histogram has no buckets", f.name, s.labels))
			}
			if s.hist == nil && s.counter == nil && s.cfn == nil && s.gfn == nil {
				problems = append(problems, fmt.Sprintf("%s%s: series registered without a metric", f.name, s.labels))
			}
		}
	}
	return problems
}
