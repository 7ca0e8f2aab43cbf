//go:build linux

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{name: "server_allocs_per_op", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	for _, tc := range []struct {
		d                 metricDef
		base, new, spread float64
		want              string
	}{
		{lower, 100, 105, 0.02, verdictSame},
		{lower, 100, 110, 0.02, verdictSame}, // exactly at the bound is not beyond it
		{lower, 100, 111, 0.02, verdictWorse},
		{lower, 100, 50, 0.02, verdictSame}, // a gain is not this table's business
		{higher, 1000, 950, 0.02, verdictSame},
		{higher, 1000, 890, 0.02, verdictWorse},
		{higher, 1000, 2000, 0.02, verdictSame},
		{lower, 100, 200, 0.30, verdictUnresolved}, // too noisy to call, even when far apart
		{higher, 1000, 1000, 0.11, verdictUnresolved},
	} {
		if got := judge(tc.d, tc.base, tc.new, tc.spread); got != tc.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", tc.d.name, tc.base, tc.new, tc.spread, got, tc.want)
		}
	}
}

// run builds one untraced run that reports every gated and watched
// metric at value v with a 1% quartile spread, then applies overrides.
func run(workload string, v float64, failed int, overrides map[string]metric) recordRun {
	ms := metricSet{}
	for _, d := range compared {
		ms[d.name] = metric{Value: v, Unit: d.unit, Q1: v * 0.995, Q3: v * 1.005, N: 1000}
	}
	for k, m := range overrides {
		ms[k] = m
	}
	return recordRun{runResult: runResult{Workload: workload, Attempted: 1000, Failed: failed, Correct: failed == 0, Metrics: ms}}
}

func verdictOf(rows []compareRow, workload, name string) string {
	for _, r := range rows {
		if r.workload == workload && r.metric == name {
			return r.verdict
		}
	}
	return "absent"
}

func TestCompareFiles(t *testing.T) {
	base := &resultFile{Schema: 1, Runs: []recordRun{
		run("lookup_hot", 100, 0, nil),
		run("lookup_hot", 102, 0, nil), // a second set: the file's value is the median of both
		run("paper_mix", 100, 0, nil),
		{runResult: runResult{Workload: "lookup_hot", Trace: true, Metrics: metricSet{"setup_s": {Value: 1}}}}, // traced runs are ignored
	}}
	new := &resultFile{Schema: 1, Runs: []recordRun{
		run("lookup_hot", 101, 0, map[string]metric{
			"server_allocs_per_op":   {Value: 130, Q1: 129, Q3: 131},       // 29% more: worse
			"wire_bytes_per_op":      {Value: 103.5, Q1: 103.4, Q3: 103.6}, // +2.5% > 2%: worse
			"server_syscalls_per_op": {Value: 110, Q1: 90, Q3: 130},        // spread 36% > 20%: unresolved
			"setup_s":                {Value: 120},                         // +19% < 25%: same
			"ops_per_s":              {Value: 60, Q1: 59.9, Q3: 60.1},      // 41% fewer: worse for a higher-is-better metric, but not gated
			"lookup_p99_us":          {Value: 300, Q1: 200, Q3: 400},       // spread 67% > 25%: unresolved
		}),
		run("paper_mix", 100, 3, nil),
	}}
	rows, failWorse := compareFiles(base, new)
	for name, want := range map[string]string{
		"server_allocs_per_op": verdictWorse, "wire_bytes_per_op": verdictWorse,
		"server_syscalls_per_op": verdictUnresolved, "setup_s": verdictSame, "server_rss_mb": verdictSame,
		"ops_per_s": verdictWorse, "lookup_p99_us": verdictUnresolved, "lookup_p50_us": verdictSame,
		"fail_frac": verdictSame,
	} {
		if got := verdictOf(rows, "lookup_hot", name); got != want {
			t.Errorf("lookup_hot %s: %s, want %s", name, got, want)
		}
	}
	if got := verdictOf(rows, "paper_mix", "fail_frac"); got != verdictWorse || !failWorse {
		t.Errorf("paper_mix fail_frac: %s (failWorse %v), want worse", got, failWorse)
	}
	if got := verdictOf(rows, "lookup_cold", "setup_s"); got != "absent" {
		t.Errorf("a workload neither file ran has a row: %s", got)
	}
	for _, r := range rows {
		if r.workload == "lookup_hot" && r.metric == "server_allocs_per_op" && (r.base != 101 || r.new != 130) {
			t.Errorf("server_allocs_per_op row base %v new %v, want the two-run median 101 and 130", r.base, r.new)
		}
		if wantGated := r.metric != "ops_per_s" && r.metric != "lookup_p50_us" && r.metric != "lookup_p99_us" && r.metric != "server_cpu_us_per_op"; r.gated != wantGated {
			t.Errorf("%s gated = %v", r.metric, r.gated)
		}
	}
}

func TestCompareMainExitsNonZeroOnlyOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...recordRun) string {
		path := filepath.Join(dir, name)
		for _, r := range runs {
			if err := appendResult(path, environment{Commit: "test"}, &r.runResult); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", run("lookup_hot", 100, 0, nil))
	b := write("b.json", run("lookup_hot", 101, 0, nil))
	costly := write("costly.json", run("lookup_hot", 100, 0, map[string]metric{"server_allocs_per_op": {Value: 150, Q1: 149, Q3: 151}}))
	slow := write("slow.json", run("lookup_hot", 100, 0, map[string]metric{"lookup_p50_us": {Value: 150, Q1: 149, Q3: 151}}))
	failing := write("failing.json", run("lookup_hot", 100, 2, nil))

	var out bytes.Buffer
	if err := compareMain(&out, []string{a, b}); err != nil {
		t.Errorf("same-code files: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "server_allocs_per_op") || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("table lacks rows:\n%s", out.String())
	}
	if err := compareMain(&out, []string{a, costly}); err == nil {
		t.Error("50% more allocations per operation did not fail the comparison")
	}
	out.Reset()
	if err := compareMain(&out, []string{a, slow}); err != nil {
		t.Errorf("an ungated metric failed the comparison: %v", err)
	}
	if !strings.Contains(out.String(), "worse (not gated)") {
		t.Errorf("the slower p50 is not shown as worse (not gated):\n%s", out.String())
	}
	if err := compareMain(&out, []string{a, failing}); err == nil {
		t.Error("a higher fail_frac did not fail the comparison")
	}
	if err := compareMain(&out, []string{a}); err == nil {
		t.Error("one argument accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"schema":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareMain(&out, []string{a, filepath.Join(dir, "bad.json")}); err == nil {
		t.Error("unknown schema accepted")
	}
}
