//go:build linux

package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuickSmoke builds the real daemon and runs every workload end to
// end with 1 s windows on the 500-program catalogue, the last one
// traced, so that tier-1 keeps the benchmark building and runnable. It
// asserts correctness, not speed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots reputationd four times; skipped under -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	work := t.TempDir()
	opt := options{
		workloads: "lookup_hot,lookup_cold,batch_prefetch", seed: 11, seconds: 1, quick: true,
		out: filepath.Join(work, "smoke.json"), workDir: work, traceDir: filepath.Join(work, "out"),
	}
	if err := benchMain(ctx, opt); err != nil {
		t.Fatalf("untraced quick runs: %v", err)
	}
	opt.workloads, opt.trace = "paper_mix", true
	if err := benchMain(ctx, opt); err != nil {
		t.Fatalf("traced quick run: %v", err)
	}
	f, err := loadResults(opt.out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workloads) {
		t.Fatalf("%d runs recorded, want %d", len(f.Runs), len(workloads))
	}
	for _, r := range f.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d failed of %d", r.Workload, r.Correct, r.Failed, r.Attempted)
		}
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", r.Workload, d.name, m)
			}
		}
		if !r.Trace {
			continue
		}
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing from the traced run", r.Workload, d.name)
			}
		}
		if m := r.Metrics["repcache.invalidations_per_vote"]; m.Value < 1 {
			t.Errorf("paper_mix: %v invalidations per vote, want at least 1", m.Value)
		}
	}
	if _, err := os.Stat(filepath.Join(opt.traceDir, "trace-paper_mix.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "out" {
			t.Errorf("run directory %s left behind", e.Name())
		}
	}
}
