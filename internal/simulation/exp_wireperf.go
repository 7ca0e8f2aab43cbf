package simulation

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/server"
)

// Experiment E23 — compact binary wire protocol: lookup cost on the
// wire. E19 made the server's read path write-free; what remains on the
// lookup's critical path is the wire itself — XML encode/decode on both
// ends and the document's byte bulk on every round trip. E23 replays
// the E19 mixed hot/cold workload over real loopback HTTP three times:
// the XML compat arm, the binary framing, and binary with batched
// lookups — and reports lookups/s, honest bytes per lookup (counted at
// the listener, headers included), allocations per lookup, and latency
// percentiles, all with the adaptive admission controller engaged.
//
// The headline claims under test: binary+batch sustains at least 2x the
// XML arm's lookups/s and moves at least 3x fewer bytes per lookup,
// while the XML arm keeps working unchanged — it is the compat story,
// not a deprecation.

// WirePerfConfig sizes E23.
type WirePerfConfig struct {
	Seed          int64
	Programs      int
	Users         int
	VotesPerAgent int

	// Lookups per arm; Workers concurrent clients.
	Lookups int
	Workers int
	// BatchSize is how many lookups the batch arm packs per frame.
	BatchSize int
}

// WirePerfArm is one protocol's measured pass over the workload.
type WirePerfArm struct {
	Name       string
	Lookups    int
	Failed     int
	Wall       time.Duration
	Throughput float64 // lookups per second
	P50, P99   time.Duration

	// BytesIn/BytesOut are counted at the server's listener — TCP
	// payload truth, HTTP headers included — and BytesPerLookup is
	// their sum over the arm's lookups.
	BytesIn, BytesOut uint64
	BytesPerLookup    float64
	// AllocsPerLookup is the process-wide allocation count per lookup
	// (client and server share the process, so both sides' garbage is
	// charged — the comparison across arms is what matters).
	AllocsPerLookup float64
}

// WirePerfResult reports E23.
type WirePerfResult struct {
	Config      WirePerfConfig
	XML         WirePerfArm
	Binary      WirePerfArm
	BinaryBatch WirePerfArm

	// SpeedupBinary/SpeedupBatch are lookups/s over the XML arm;
	// ByteFactorBinary/ByteFactorBatch are XML bytes/lookup over the
	// arm's (higher = fewer bytes).
	SpeedupBinary    float64
	SpeedupBatch     float64
	ByteFactorBinary float64
	ByteFactorBatch  float64
}

// RunWirePerf executes E23.
func RunWirePerf(cfg WirePerfConfig) (WirePerfResult, error) {
	res := WirePerfResult{Config: cfg}

	// The server runs with the adaptive admission controller on — the
	// throughput and p99 claims hold at the admission limit, not in an
	// ungoverned free-for-all.
	t, err := NewTier(TierConfig{
		Seed: cfg.Seed, Programs: cfg.Programs, Users: cfg.Users, VotesPerAgent: cfg.VotesPerAgent,
		Server: server.Config{AdmissionControl: true},
	})
	if err != nil {
		return res, err
	}
	defer t.Close()
	metas, err := t.warm()
	if err != nil {
		return res, err
	}

	// Every arm's traffic crosses p's real socket, whose listener counts
	// the bytes: framing, headers, everything. The same hot/cold pick
	// sequence replays in every arm.
	p := t.nodes[0]
	picks := hotColdPicks(cfg.Seed+23, cfg.Lookups, len(metas))

	measure := func(name string, binary, batch bool) (WirePerfArm, error) {
		arm := WirePerfArm{Name: name, Lookups: cfg.Lookups}
		// A fresh client (and connection pool) per arm: no arm inherits
		// another's warm connections or negotiation pins.
		tr := client.NewTransport()
		api := client.NewAPI(p.ts.URL, t.Client("client", tr))
		if binary {
			api.EnableBinaryProtocol()
		}

		// Latency is recorded per wire call: per lookup in the single
		// arms, per batch frame in the batch arm (each entry in a batch
		// waits for the whole frame, so that IS its latency).
		calls := cfg.Lookups
		if batch {
			calls = (cfg.Lookups + cfg.BatchSize - 1) / cfg.BatchSize
		}
		runtime.GC()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		in0, out0 := p.in.Load(), p.out.Load()

		ctx := context.Background()
		lat, failed, wall := closedLoop(cfg.Workers, calls, func(_, c int) int {
			if !batch {
				if _, err := api.Lookup(ctx, metas[picks[c]]); err != nil {
					return 1
				}
				return 0
			}
			lo := c * cfg.BatchSize
			chunk := make([]core.SoftwareMeta, min(lo+cfg.BatchSize, cfg.Lookups)-lo)
			for j := range chunk {
				chunk[j] = metas[picks[lo+j]]
			}
			results, err := api.LookupBatch(ctx, chunk)
			if err != nil {
				return len(chunk)
			}
			n := 0
			for _, r := range results {
				if r.Err != nil {
					n++
				}
			}
			return n
		})
		arm.Wall, arm.Failed = wall, failed

		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		arm.BytesIn = p.in.Load() - in0
		arm.BytesOut = p.out.Load() - out0
		if arm.Wall > 0 {
			arm.Throughput = float64(cfg.Lookups) / arm.Wall.Seconds()
		}
		arm.BytesPerLookup = float64(arm.BytesIn+arm.BytesOut) / float64(cfg.Lookups)
		arm.AllocsPerLookup = float64(ms1.Mallocs-ms0.Mallocs) / float64(cfg.Lookups)
		arm.P50, arm.P99, _ = latencyQuantiles(lat)
		tr.CloseIdleConnections()
		if arm.Failed > 0 {
			return arm, fmt.Errorf("wireperf: %s: %d lookups failed", name, arm.Failed)
		}
		return arm, nil
	}

	if res.XML, err = measure("XML (compat arm)", false, false); err != nil {
		return res, err
	}
	if res.Binary, err = measure("binary framing", true, false); err != nil {
		return res, err
	}
	if res.BinaryBatch, err = measure("binary + batched lookups", true, true); err != nil {
		return res, err
	}

	if res.XML.Throughput > 0 {
		res.SpeedupBinary = res.Binary.Throughput / res.XML.Throughput
		res.SpeedupBatch = res.BinaryBatch.Throughput / res.XML.Throughput
	}
	if res.Binary.BytesPerLookup > 0 {
		res.ByteFactorBinary = res.XML.BytesPerLookup / res.Binary.BytesPerLookup
	}
	if res.BinaryBatch.BytesPerLookup > 0 {
		res.ByteFactorBatch = res.XML.BytesPerLookup / res.BinaryBatch.BytesPerLookup
	}
	return res, nil
}

// String renders E23.
func (r WirePerfResult) String() string {
	var b strings.Builder
	b.WriteString("E23 — compact binary wire protocol: lookup cost on the wire\n")
	fmt.Fprintf(&b, "workload: %d lookups x3 arms over %d programs via loopback HTTP, %d concurrent clients, batch size %d, admission control on\n\n",
		r.Config.Lookups, r.Config.Programs, r.Config.Workers, r.Config.BatchSize)
	row := func(a WirePerfArm) {
		fmt.Fprintf(&b, "  %-28s %9.0f lookups/s   %7.0f B/lookup  %7.0f allocs/lookup   p50 %8s  p99 %8s\n",
			a.Name, a.Throughput, a.BytesPerLookup, a.AllocsPerLookup,
			a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond))
	}
	row(r.XML)
	row(r.Binary)
	row(r.BinaryBatch)
	fmt.Fprintf(&b, "\nbinary:       %.2fx lookups/s, %.1fx fewer bytes/lookup than XML\n",
		r.SpeedupBinary, r.ByteFactorBinary)
	fmt.Fprintf(&b, "binary+batch: %.2fx lookups/s, %.1fx fewer bytes/lookup than XML (claims: >=2x, >=3x)\n",
		r.SpeedupBatch, r.ByteFactorBatch)
	b.WriteString("(batch-arm latency percentiles are per batch frame: every entry in a frame shares its round trip)\n")
	return b.String()
}
