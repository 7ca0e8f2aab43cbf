//go:build linux

package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one compared metric. There is no "better": a gain is
// claimed by the rule in the choosing-metrics guide (paired runs), not
// by this table, which only guards against regressions.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// watched are the caller-observed times that ISSUE 11 wanted gated, with
// the bounds it gave them. -compare prints them below the gated metrics
// and judges them the same way, but its exit status ignores them: on
// this machine class they are mostly unresolved (see metrics.go).
var watched = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.10},
	{"lookup_p50_us", "us", "lower", 0.10},
	{"lookup_p99_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.10},
}

// compared lists what -compare prints a row for: the gated metrics, then
// the watched ones.
var compared = append(append([]metricDef{}, endToEnd...), watched...)

// compareRow is one workload x metric line of -compare.
type compareRow struct {
	gated                  bool
	workload, metric, unit string
	base, new              float64
	ratio                  float64 // new / base
	bound                  float64
	spread                 float64 // widest sub-window quartile spread, as a share of the value
	verdict                string
}

// judge compares new with base for a metric whose better direction and
// bound are d's. A metric whose sub-window quartiles lie further apart
// than the bound cannot resolve a change of the bound's size, whatever
// the two values are.
func judge(d metricDef, base, new, spread float64) string {
	if spread > d.bound {
		return verdictUnresolved
	}
	worse := new > base*(1+d.bound)
	if d.better == "higher" {
		worse = new < base*(1-d.bound)
	}
	if worse {
		return verdictWorse
	}
	return verdictSame
}

// pooled is one file's view of a workload x metric: the median of its
// untraced runs' values and the widest relative quartile spread among
// them.
func pooled(f *resultFile, workload, name string) (value, spread float64, ok bool) {
	var vals []float64
	for i := range f.Runs {
		r := &f.Runs[i]
		m, has := r.Metrics[name]
		if r.Workload != workload || r.Trace || !has {
			continue
		}
		vals = append(vals, m.Value)
		if m.Value != 0 && (m.Q1 != 0 || m.Q3 != 0) {
			spread = max(spread, (m.Q3-m.Q1)/m.Value)
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	sort.Float64s(vals)
	return quantile(vals, 0.5), spread, true
}

// failFrac is a file's failed operations over attempted ones for a
// workload, over all its runs.
func failFrac(f *resultFile, workload string) float64 {
	var failed, attempted int
	for i := range f.Runs {
		if r := &f.Runs[i]; r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles builds the table. failWorse reports whether any workload's
// fail_frac rose.
func compareFiles(base, new *resultFile) (rows []compareRow, failWorse bool) {
	for i := range workloads {
		wl := workloads[i].name
		any := false
		for i, d := range compared {
			b, bs, ok1 := pooled(base, wl, d.name)
			n, ns, ok2 := pooled(new, wl, d.name)
			if !ok1 || !ok2 {
				continue
			}
			any = true
			row := compareRow{gated: i < len(endToEnd), workload: wl, metric: d.name, unit: d.unit, base: b, new: n,
				ratio: ratio(n, b), bound: d.bound, spread: max(bs, ns)}
			row.verdict = judge(d, b, n, row.spread)
			rows = append(rows, row)
		}
		if !any {
			continue
		}
		fb, fn := failFrac(base, wl), failFrac(new, wl)
		row := compareRow{gated: true, workload: wl, metric: "fail_frac", unit: "frac", base: fb, new: fn, verdict: verdictSame}
		if fn > fb {
			row.verdict, failWorse = verdictWorse, true
		}
		rows = append(rows, row)
	}
	return rows, failWorse
}

// compareMain is `bench -compare base.json new.json`.
func compareMain(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files: base.json new.json")
	}
	base, err := loadResults(args[0])
	if err != nil {
		return err
	}
	new, err := loadResults(args[1])
	if err != nil {
		return err
	}
	rows, failWorse := compareFiles(base, new)
	if len(rows) == 0 {
		return fmt.Errorf("the two files share no untraced run of any workload")
	}
	fmt.Fprintf(w, "base %s (%d runs)  new %s (%d runs); ratio is new/base\n", args[0], len(base.Runs), args[1], len(new.Runs))
	fmt.Fprintf(w, "%-15s %-26s %14s %14s %-5s %7s %6s %7s  %s\n",
		"workload", "metric", "base", "new", "unit", "ratio", "bound", "spread", "verdict")
	worse := 0
	for _, r := range rows {
		note := ""
		if !r.gated {
			note = " (not gated)"
		}
		fmt.Fprintf(w, "%-15s %-26s %14.4f %14.4f %-5s %7.4f %6.2f %7.4f  %s%s\n",
			r.workload, r.metric, r.base, r.new, r.unit, r.ratio, r.bound, r.spread, r.verdict, note)
		if r.gated && r.verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 || failWorse {
		return fmt.Errorf("%d gated metric(s) worse than the base by more than their bound", worse)
	}
	return nil
}
