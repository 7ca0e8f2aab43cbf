package telemetry

import (
	"strings"
	"testing"
)

// TestSum holds the scrape reader to the exposition WritePrometheus
// writes, and to label sets written in another order than the match.
func TestSum(t *testing.T) {
	reg := NewRegistry()
	for _, format := range []string{"xml", "binary"} {
		for _, code := range []string{"2xx", "5xx"} {
			reg.Counter("reputation_http_requests_total", "Requests served.",
				Labels{{"endpoint", "vote"}, {"format", format}, {"code", code}})
		}
	}
	reg.Counter("reputation_http_requests_total", "Requests served.",
		Labels{{"endpoint", "vote"}, {"format", "xml"}, {"code", "5xx"}}).Add(3)
	reg.Counter("reputation_http_requests_total", "Requests served.",
		Labels{{"endpoint", "vote"}, {"format", "binary"}, {"code", "5xx"}}).Add(4)
	reg.Counter("reputation_http_requests_total", "Requests served.",
		Labels{{"endpoint", "vote"}, {"format", "binary"}, {"code", "2xx"}}).Add(50)
	reg.GaugeFunc("reputation_http_inflight", "In flight.", nil, func() float64 { return 2 })
	reg.GaugeFunc("reputation_http_inflight_peak", "Peak in flight.", nil, func() float64 { return 9 })
	reg.Counter("odd_total", "Escaped label values.", L("path", `a"b\c`)).Add(5)
	reg.Counter("odd_total", "Escaped label values.", L("path", `x",code="5xx`)).Add(6)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()

	for _, tc := range []struct {
		name   string
		text   string
		metric string
		match  Labels
		sum    float64
		found  bool
	}{
		{name: "both formats of vote 5xx", text: scrape, metric: "reputation_http_requests_total",
			match: Labels{{"endpoint", "vote"}, {"code", "5xx"}}, sum: 7, found: true},
		{name: "match in another order", text: scrape, metric: "reputation_http_requests_total",
			match: Labels{{"code", "5xx"}, {"format", "binary"}, {"endpoint", "vote"}}, sum: 4, found: true},
		{name: "no labels sums the family", text: scrape, metric: "reputation_http_requests_total",
			sum: 57, found: true},
		{name: "labels in another order", metric: "req_total", match: Labels{{"code", "5xx"}, {"endpoint", "vote"}},
			text: "req_total{code=\"5xx\",endpoint=\"vote\"} 2\nreq_total{endpoint=\"vote\",code=\"5xx\"} 3\n", sum: 5, found: true},
		{name: "HELP and TYPE skipped", metric: "req_total",
			text: "# HELP req_total Requests served, in 7 classes: 7\n# TYPE req_total counter\nreq_total 1\n", sum: 1, found: true},
		{name: "prefix of another family", text: scrape, metric: "reputation_http_inflight", sum: 2, found: true},
		{name: "missing family", text: scrape, metric: "reputation_http_inflight_max"},
		{name: "no series matches", text: scrape, metric: "reputation_http_requests_total",
			match: L("endpoint", "lookup")},
		{name: "escaped label value", text: scrape, metric: "odd_total", match: L("path", `a"b\c`), sum: 5, found: true},
		{name: "a value cannot fake a pair", text: scrape, metric: "odd_total", match: L("code", "5xx")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum, found := Sum(tc.text, tc.metric, tc.match)
			if sum != tc.sum || found != tc.found {
				t.Fatalf("Sum = %v, %v; want %v, %v", sum, found, tc.sum, tc.found)
			}
		})
	}
}
