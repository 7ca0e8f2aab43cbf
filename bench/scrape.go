//go:build linux

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series is one line of a Prometheus text exposition.
type series struct {
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics page: family name -> its series.
// Histogram _bucket, _sum and _count lines are kept under their own
// names.
type scrape map[string][]series

// parseScrape parses the Prometheus text format (0.0.4) as the repo's
// telemetry package writes it: comment lines, then
// `name{label="value",...} number` lines.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: value in %q: %v", line, err)
		}
		name, labels := line[:sp], map[string]string(nil)
		if open := strings.IndexByte(name, '{'); open >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("scrape: unterminated labels in %q", line)
			}
			labels, err = parseLabels(name[open+1 : len(name)-1])
			if err != nil {
				return nil, fmt.Errorf("scrape: %v in %q", err, line)
			}
			name = name[:open]
		}
		out[name] = append(out[name], series{labels: labels, value: val})
	}
	return out, sc.Err()
}

// parseLabels parses `a="x",b="y"`; values may hold escaped quotes.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq <= 0 {
			return nil, fmt.Errorf("bad label pair")
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value")
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return labels, nil
}

// sum adds up the series of family whose labels include every pair of
// match ("k", "v", ...). A family that is absent from the page is an
// error, so a renamed family cannot silently read as zero; a present
// family with no matching series is one too.
func (s scrape) sum(family string, match ...string) (float64, error) {
	all, ok := s[family]
	if !ok {
		return 0, fmt.Errorf("scrape: family %s is missing from /metrics", family)
	}
	total, hit := 0.0, false
next:
	for _, ser := range all {
		for i := 0; i+1 < len(match); i += 2 {
			if ser.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += ser.value
		hit = true
	}
	if !hit {
		return 0, fmt.Errorf("scrape: family %s has no series matching %v", family, match)
	}
	return total, nil
}

// fetchScrape GETs and parses base's /metrics page with hc, which must
// not be the generator's counted client.
func fetchScrape(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: /metrics answered %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// scrapeDelta reads counters as the difference between two pages and
// gauges from the later one, remembering the first error so that callers
// can derive every metric and check once.
type scrapeDelta struct {
	before, after scrape
	err           error
}

func (d *scrapeDelta) note(err error) {
	if err != nil && d.err == nil {
		d.err = err
	}
}

// counter returns after-before of a counter family.
func (d *scrapeDelta) counter(family string, match ...string) float64 {
	b, err := d.before.sum(family, match...)
	d.note(err)
	a, err := d.after.sum(family, match...)
	d.note(err)
	return a - b
}

// gauge returns the later page's value of a gauge family.
func (d *scrapeDelta) gauge(family string, match ...string) float64 {
	a, err := d.after.sum(family, match...)
	d.note(err)
	return a
}

// ratio is num/den, 0 when den is 0 (the layer saw no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fetchMemStats reads the daemon's runtime.MemStats from the text form of
// its heap profile, which ends with one "# Field = value" line per
// field. It returns the numeric fields by name.
func fetchMemStats(ctx context.Context, hc *http.Client, pprofBase string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pprofBase+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("memstats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("memstats: heap profile answered %s", resp.Status)
	}
	return parseMemStats(resp.Body)
}

func parseMemStats(r io.Reader) (map[string]float64, error) {
	stats := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inStats := false
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			inStats = true
			continue
		}
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !inStats || !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			stats[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, need := range []string{"Mallocs", "TotalAlloc", "NumGC"} {
		if _, ok := stats[need]; !ok {
			return nil, fmt.Errorf("memstats: no %s in the heap profile's runtime.MemStats section", need)
		}
	}
	return stats, nil
}
