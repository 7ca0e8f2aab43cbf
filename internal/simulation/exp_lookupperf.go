package simulation

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/wire"
)

// Experiment E19 — read-path fast lane: lookup throughput and latency
// at deployment scale. The reputation server's dominant operation is
// the lookup issued at every execution prompt, and the legacy path paid
// a write transaction per lookup: software registration was an
// unconditional upsert, so even the millionth lookup of a known
// executable serialised on the store's write lock. The fast lane makes
// known-software checks write-free, caches pre-encoded reports keyed by
// executable and feed set, and batch-fetches comment authors' trust
// factors in one read transaction.
//
// The run drives a mixed hot/cold lookup workload through the HTTP
// handler and reports throughput, latency percentiles, write
// transactions consumed, and the report cache's hit ratio. The claim
// under test: the steady state issues zero write transactions. The
// upsert-per-lookup numbers it replaced are frozen in EXPERIMENTS.md.

// LookupPerfConfig sizes E19.
type LookupPerfConfig struct {
	Seed          int64
	Programs      int // catalog size (the paper's 2000+ deployment scale)
	Users         int
	VotesPerAgent int // seed votes, so reports carry scores and comments

	// Lookups is how many lookups the run issues.
	Lookups int
	// Workers is the number of concurrent lookup clients.
	Workers int
	// HotFrac is the fraction of the catalog forming the hot set;
	// HotShare is the share of lookups aimed at it. The defaults model
	// the usual skew: 90% of executions hit 10% of the programs.
	HotFrac  float64
	HotShare float64
	// CacheEntries overrides the report cache capacity; 0 selects the
	// server default.
	CacheEntries int
}

// DefaultLookupPerfConfig is the full-scale E19 run.
func DefaultLookupPerfConfig(seed int64) LookupPerfConfig {
	return LookupPerfConfig{
		Seed: seed, Programs: 2500, Users: 300, VotesPerAgent: 20,
		Lookups: 30000, Workers: 8, HotFrac: 0.10, HotShare: 0.90,
	}
}

// QuickLookupPerfConfig is the reduced-scale E19 run.
func QuickLookupPerfConfig(seed int64) LookupPerfConfig {
	return LookupPerfConfig{
		Seed: seed, Programs: 300, Users: 40, VotesPerAgent: 8,
		Lookups: 3000, Workers: 4, HotFrac: 0.10, HotShare: 0.90,
	}
}

// LookupPerfRun is one measured pass over the workload.
type LookupPerfRun struct {
	Lookups    int
	Failed     int
	Wall       time.Duration
	Throughput float64 // lookups per second
	P50, P99   time.Duration

	// WriteTxns counts write transactions begun (write-lock
	// acquisitions, even ones that commit nothing) and SeqDelta how far
	// the replication sequence advanced. Both must be zero for the fast
	// lane's steady state.
	WriteTxns uint64
	SeqDelta  uint64

	// Cache counters over the pass.
	CacheHits   uint64
	CacheMisses uint64
	HitRatio    float64
}

// LookupPerfResult reports E19.
type LookupPerfResult struct {
	Config LookupPerfConfig
	Perf   LookupPerfRun // write-free reads + report cache
}

// RunLookupPerf executes E19.
func RunLookupPerf(cfg LookupPerfConfig) (LookupPerfResult, error) {
	res := LookupPerfResult{Config: cfg}

	w, err := NewWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users},
	})
	if err != nil {
		return res, err
	}
	defer w.Close()

	// Seed votes and publish scores so a lookup is a real report: score,
	// vendor rating, comments with author trust.
	if _, err := w.SeedVotes(cfg.VotesPerAgent); err != nil {
		return res, err
	}
	if err := w.Aggregate(); err != nil {
		return res, err
	}
	// Register every catalog item once: the measured pass runs against a
	// database that has seen all of it before — the steady state.
	for _, exe := range w.Catalog.Items {
		if _, err := w.Server.Lookup(MetaOf(exe)); err != nil {
			return res, err
		}
	}

	// Pre-encode one lookup request per catalog item and fix the
	// hot/cold pick sequence, so every run replays the same bytes in the
	// same order.
	bodies := make([][]byte, len(w.Catalog.Items))
	for i, exe := range w.Catalog.Items {
		meta := MetaOf(exe)
		var buf bytes.Buffer
		err := wire.Encode(&buf, wire.LookupRequest{Software: wire.SoftwareInfo{
			ID:       meta.ID.String(),
			FileName: meta.FileName,
			FileSize: meta.FileSize,
			Vendor:   meta.Vendor,
			Version:  meta.Version,
		}})
		if err != nil {
			return res, err
		}
		bodies[i] = buf.Bytes()
	}
	hotN := int(cfg.HotFrac * float64(len(bodies)))
	if hotN < 1 {
		hotN = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 19))
	picks := make([]int, cfg.Lookups)
	for i := range picks {
		if rng.Float64() < cfg.HotShare || hotN == len(bodies) {
			picks[i] = rng.Intn(hotN)
		} else {
			picks[i] = hotN + rng.Intn(len(bodies)-hotN)
		}
	}

	handler := w.Server.Handler()
	db := w.Store().DB()
	run := LookupPerfRun{Lookups: cfg.Lookups}
	seq0, upd0 := db.Seq(), db.WriteAttempts()
	cs0 := w.Server.ReportCacheStats()

	lat := make([]time.Duration, cfg.Lookups)
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < cfg.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One request template and one response sink per worker:
			// the harness must not out-allocate the handler under
			// measurement.
			base := httptest.NewRequest(http.MethodPost, wire.PathLookup, nil)
			base.Header.Set("Content-Type", wire.ContentType)
			var rd bytes.Reader
			sink := &sinkResponse{header: make(http.Header)}
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Lookups {
					return
				}
				rd.Reset(bodies[picks[i]])
				req := *base
				req.Body = io.NopCloser(&rd)
				sink.code = http.StatusOK
				sink.n = 0
				t0 := time.Now()
				handler.ServeHTTP(sink, &req)
				lat[i] = time.Since(t0)
				if sink.code != http.StatusOK || sink.n == 0 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	run.Wall = time.Since(start)
	run.Failed = int(failed.Load())
	if run.Wall > 0 {
		run.Throughput = float64(cfg.Lookups) / run.Wall.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	run.P50 = lat[len(lat)/2]
	run.P99 = lat[len(lat)*99/100]
	run.SeqDelta = db.Seq() - seq0
	run.WriteTxns = db.WriteAttempts() - upd0
	cs1 := w.Server.ReportCacheStats()
	run.CacheHits = cs1.Hits - cs0.Hits
	run.CacheMisses = cs1.Misses - cs0.Misses
	if total := run.CacheHits + run.CacheMisses; total > 0 {
		run.HitRatio = float64(run.CacheHits) / float64(total)
	}
	res.Perf = run
	if run.Failed > 0 {
		return res, fmt.Errorf("lookupperf: %d lookups failed", run.Failed)
	}
	if run.WriteTxns != 0 || run.SeqDelta != 0 {
		return res, fmt.Errorf("lookupperf: fast lane was not write-free: %d write txns, seq +%d",
			run.WriteTxns, run.SeqDelta)
	}
	return res, nil
}

// sinkResponse is a minimal, reusable http.ResponseWriter: it records
// the status and byte count and discards the body, so the measurement
// loop does not charge response buffering to the server.
type sinkResponse struct {
	header http.Header
	code   int
	n      int
}

func (w *sinkResponse) Header() http.Header { return w.header }

func (w *sinkResponse) WriteHeader(code int) { w.code = code }

func (w *sinkResponse) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// String renders E19.
func (r LookupPerfResult) String() string {
	var b strings.Builder
	b.WriteString("E19 — read-path fast lane: lookup throughput at deployment scale\n")
	fmt.Fprintf(&b, "workload: %d lookups over %d programs, %.0f%% aimed at the hottest %.0f%%, %d concurrent clients\n\n",
		r.Config.Lookups, r.Config.Programs, r.Config.HotShare*100, r.Config.HotFrac*100, r.Config.Workers)
	a := r.Perf
	fmt.Fprintf(&b, "  %-40s %9.0f lookups/s   p50 %8s  p99 %8s  write txns %5d\n",
		"fast lane (write-free + report cache)", a.Throughput, a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond), a.WriteTxns)
	fmt.Fprintf(&b, "\nreport cache hit ratio %.3f (%d hits / %d misses)\n", a.HitRatio, a.CacheHits, a.CacheMisses)
	fmt.Fprintf(&b, "steady state: %d write transactions begun, commit sequence advanced by %d.\n",
		a.WriteTxns, a.SeqDelta)
	return b.String()
}
