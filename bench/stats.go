//go:build linux

package main

import (
	"sort"
	"time"
)

// subWindows is how many equal parts the timed window is split into. A
// throughput or percentile metric is the median over the parts, so one
// stall (a GC cycle, a compaction) moves one part, not the result.
const subWindows = 10

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. It returns 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is a value with the spread behind it.
type summary struct {
	median, q1, q3 float64
	n              int // values summarised
}

// summarise returns the median and quartiles of vals (which it sorts).
func summarise(vals []float64) summary {
	sort.Float64s(vals)
	return summary{
		median: quantile(vals, 0.5),
		q1:     quantile(vals, 0.25),
		q3:     quantile(vals, 0.75),
		n:      len(vals),
	}
}

// sample is one completed request as its caller saw it.
type sample struct {
	end  time.Duration // completion time since the phase started
	dur  time.Duration
	kind opKind
	ops  int32 // logical operations carried (64 for a batch frame)
}

// windowStats are the per-sub-window series of one timed window.
type windowStats struct {
	opsPerS   []float64 // logical operations completed per second
	lookupP50 []float64 // µs, over lookup and batch calls
	lookupP99 []float64
	voteP50   []float64 // µs; empty when the window saw no votes
	voteP99   []float64
	ops       []int // logical operations completed, per sub-window
	lookups   int   // timed lookup or batch calls in the whole window
	votes     int   // timed vote calls in the whole window
	// lookupP999 is taken over the whole window, not per sub-window: a
	// sub-window does not hold ten samples beyond the 99.9th percentile.
	lookupP999 float64
}

// splitWindow buckets samples by completion time into subWindows equal
// parts of window and computes each part's throughput and latency
// percentiles. Samples that completed after the window are dropped.
func splitWindow(samples []sample, window time.Duration) windowStats {
	var ws windowStats
	part := window / subWindows
	lookups := make([][]float64, subWindows)
	votes := make([][]float64, subWindows)
	ws.ops = make([]int, subWindows)
	var allLookups []float64
	for _, s := range samples {
		i := int(s.end / part)
		if s.end < 0 || i >= subWindows {
			continue
		}
		us := float64(s.dur) / float64(time.Microsecond)
		ws.ops[i] += int(s.ops)
		if s.kind == opVote {
			votes[i] = append(votes[i], us)
			ws.votes++
		} else {
			lookups[i] = append(lookups[i], us)
			allLookups = append(allLookups, us)
			ws.lookups++
		}
	}
	for i := 0; i < subWindows; i++ {
		ws.opsPerS = append(ws.opsPerS, float64(ws.ops[i])/part.Seconds())
		if len(lookups[i]) > 0 {
			sort.Float64s(lookups[i])
			ws.lookupP50 = append(ws.lookupP50, quantile(lookups[i], 0.50))
			ws.lookupP99 = append(ws.lookupP99, quantile(lookups[i], 0.99))
		}
		if len(votes[i]) > 0 {
			sort.Float64s(votes[i])
			ws.voteP50 = append(ws.voteP50, quantile(votes[i], 0.50))
			ws.voteP99 = append(ws.voteP99, quantile(votes[i], 0.99))
		}
	}
	sort.Float64s(allLookups)
	ws.lookupP999 = quantile(allLookups, 0.999)
	return ws
}
