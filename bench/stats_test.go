//go:build linux

package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := quantile(vals, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestSummariseSortsAndCounts(t *testing.T) {
	s := summarise([]float64{5, 1, 4, 2, 3})
	if s.median != 3 || s.q1 != 2 || s.q3 != 4 || s.n != 5 {
		t.Errorf("summarise = %+v, want median 3 q1 2 q3 4 n 5", s)
	}
}

// One stalled sub-window must move one sub-window's numbers, not the
// reported median.
func TestSplitWindowMedianIgnoresOneStall(t *testing.T) {
	const window = 10 * time.Second // ten 1 s sub-windows
	var samples []sample
	for sub := 0; sub < subWindows; sub++ {
		n, dur := 100, 100*time.Microsecond
		if sub == 3 { // the stalled one: a tenth of the work, ten times as slow
			n, dur = 10, time.Millisecond
		}
		for i := 0; i < n; i++ {
			end := time.Duration(sub)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1)
			samples = append(samples, sample{end: end, dur: dur, kind: opLookup, ops: 1})
		}
	}
	// Outside the window on both sides: dropped.
	samples = append(samples,
		sample{end: window + time.Millisecond, dur: time.Second, kind: opLookup, ops: 1},
		sample{end: -time.Millisecond, dur: time.Second, kind: opLookup, ops: 1})

	ws := splitWindow(samples, window)
	if ws.lookups != 910 || ws.votes != 0 {
		t.Fatalf("lookups %d votes %d, want 910 and 0", ws.lookups, ws.votes)
	}
	if ws.ops[3] != 10 || ws.ops[0] != 100 {
		t.Errorf("ops per sub-window = %v", ws.ops)
	}
	if ws.lookupP50[3] != 1000 {
		t.Errorf("stalled sub-window p50 %v us, want 1000", ws.lookupP50[3])
	}
	if got := summarise(ws.opsPerS).median; got != 100 {
		t.Errorf("median throughput %v, want 100", got)
	}
	if got := summarise(ws.lookupP50).median; got != 100 {
		t.Errorf("median p50 %v us, want 100", got)
	}
	if len(ws.voteP50) != 0 {
		t.Errorf("vote series %v, want none", ws.voteP50)
	}
}

func TestSplitWindowCountsFramesAndVotes(t *testing.T) {
	samples := []sample{
		{end: 100 * time.Millisecond, dur: 2 * time.Millisecond, kind: opBatch, ops: 64},
		{end: 200 * time.Millisecond, dur: 500 * time.Microsecond, kind: opVote, ops: 1},
		{end: 300 * time.Millisecond, dur: 300 * time.Microsecond, kind: opVote, ops: 0}, // a failed vote is timed but not counted
	}
	ws := splitWindow(samples, 10*time.Second)
	if ws.ops[0] != 65 {
		t.Errorf("ops in first sub-window = %d, want 65 (a frame counts as 64)", ws.ops[0])
	}
	if ws.lookups != 1 || ws.votes != 2 {
		t.Errorf("lookups %d votes %d, want 1 and 2", ws.lookups, ws.votes)
	}
	if len(ws.voteP50) != 1 || ws.voteP50[0] != 400 {
		t.Errorf("vote p50 series %v, want [400]", ws.voteP50)
	}
	if ws.opsPerS[0] != 65 {
		t.Errorf("throughput %v, want 65/s", ws.opsPerS[0])
	}
}
