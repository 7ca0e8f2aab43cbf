//go:build linux

package main

import (
	"strings"
	"testing"
)

const pageBefore = `# HELP reputation_http_requests_total Requests served.
# TYPE reputation_http_requests_total counter
reputation_http_requests_total{endpoint="lookup",format="binary",code="2xx"} 100
reputation_http_requests_total{endpoint="lookup",format="xml",code="2xx"} 5
reputation_http_requests_total{endpoint="vote",format="xml",code="2xx"} 7
reputation_http_requests_total{endpoint="vote",format="xml",code="4xx"} 1
# HELP reputation_http_request_seconds Request latency.
# TYPE reputation_http_request_seconds histogram
reputation_http_request_seconds_bucket{endpoint="lookup",le="0.001"} 90
reputation_http_request_seconds_bucket{endpoint="lookup",le="+Inf"} 105
reputation_http_request_seconds_sum{endpoint="lookup"} 0.0105
reputation_http_request_seconds_count{endpoint="lookup"} 105
# TYPE reputation_repcache_hits_total counter
reputation_repcache_hits_total 40
# TYPE reputation_admission_limit gauge
reputation_admission_limit 128
# TYPE weird gauge
weird{note="a \"quoted\", value",k="v"} 1.5e+02
`

func TestParseScrape(t *testing.T) {
	s, err := parseScrape(strings.NewReader(pageBefore))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		family string
		match  []string
		want   float64
	}{
		{"reputation_http_requests_total", nil, 113},
		{"reputation_http_requests_total", []string{"endpoint", "lookup"}, 105},
		{"reputation_http_requests_total", []string{"endpoint", "vote", "code", "2xx"}, 7},
		{"reputation_http_request_seconds_sum", []string{"endpoint", "lookup"}, 0.0105},
		{"reputation_http_request_seconds_bucket", []string{"le", "+Inf"}, 105},
		{"reputation_repcache_hits_total", nil, 40},
		{"weird", []string{"note", `a "quoted", value`, "k", "v"}, 150},
	} {
		got, err := s.sum(tc.family, tc.match...)
		if err != nil || got != tc.want {
			t.Errorf("sum(%s, %v) = %v, %v; want %v", tc.family, tc.match, got, err, tc.want)
		}
	}
}

// A renamed family, or a label value that no longer exists, must be an
// error and not a silent zero.
func TestScrapeMissingFamilyFailsLoudly(t *testing.T) {
	s, err := parseScrape(strings.NewReader(pageBefore))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.sum("reputation_repcache_misses_total"); err == nil {
		t.Error("missing family: no error")
	}
	if _, err := s.sum("reputation_http_requests_total", "endpoint", "lookup_batch"); err == nil {
		t.Error("family without a matching series: no error")
	}
}

func TestParseScrapeRejectsGarbage(t *testing.T) {
	for _, page := range []string{
		"novalue\n",
		"name{a=\"b\" 1\n",
		"name{a=\"b} 1\n",
		"name notanumber\n",
	} {
		if _, err := parseScrape(strings.NewReader(page)); err == nil {
			t.Errorf("parseScrape(%q): no error", page)
		}
	}
}

func TestScrapeDelta(t *testing.T) {
	before, err := parseScrape(strings.NewReader(pageBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(strings.NewReplacer(
		`code="2xx"} 100`, `code="2xx"} 350`,
		"reputation_repcache_hits_total 40", "reputation_repcache_hits_total 290",
		"reputation_admission_limit 128", "reputation_admission_limit 129",
	).Replace(pageBefore)))
	if err != nil {
		t.Fatal(err)
	}
	d := scrapeDelta{before: before, after: after}
	if got := d.counter("reputation_http_requests_total", "endpoint", "lookup", "code", "2xx"); got != 250 {
		t.Errorf("counter delta = %v, want 250", got)
	}
	if got := d.counter("reputation_repcache_hits_total"); got != 250 {
		t.Errorf("hits delta = %v, want 250", got)
	}
	if got := d.gauge("reputation_admission_limit"); got != 129 {
		t.Errorf("gauge = %v, want the later page's 129", got)
	}
	if d.err != nil {
		t.Errorf("unexpected error %v", d.err)
	}
	d.counter("reputation_storedb_compactions_total")
	if d.err == nil {
		t.Error("delta of a missing family: error not remembered")
	}
}

func TestParseMemStats(t *testing.T) {
	page := `heap profile: 1: 16 [5: 80] @ heap/1048576
1: 16 [5: 80] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 1024
# TotalAlloc = 123456789
# Mallocs = 4242
# Frees = 4000
# PauseNs = [1 2 3]
# NumGC = 7
# DebugGC = false
`
	stats, err := parseMemStats(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if stats["Mallocs"] != 4242 || stats["TotalAlloc"] != 123456789 || stats["NumGC"] != 7 {
		t.Errorf("stats = %v", stats)
	}
	if _, ok := stats["PauseNs"]; ok {
		t.Error("a non-numeric field was kept")
	}
	// A page whose MemStats section lost a field the benchmark reads
	// must not read as zero allocations.
	if _, err := parseMemStats(strings.NewReader("# runtime.MemStats\n# NumGC = 1\n")); err == nil {
		t.Error("missing Mallocs: no error")
	}
	if _, err := parseMemStats(strings.NewReader("# Mallocs = 1\n# TotalAlloc = 1\n# NumGC = 1\n")); err == nil {
		t.Error("fields outside a runtime.MemStats section were accepted")
	}
}
