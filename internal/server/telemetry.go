// Server-side telemetry: the /metrics and /trace endpoints, what serve
// records about each request, and the registration of every subsystem's
// metric family into one registry.
//
// The hot path is deliberately thin: one request costs two time.Now
// calls, two atomic counter adds (the per-endpoint request counter and
// the latency histogram), and a ring write only for slow or errored
// requests. Everything that already keeps its own counters — the
// admission controller, the report cache, storedb's write pipeline,
// the replication puller — is bridged through CounterFunc/GaugeFunc
// closures that are sampled only when a scrape reads them, so
// instrumenting those layers costs nothing per request.
package server

import (
	"net/http"
	"strings"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// MetricsContentType is the Prometheus text exposition media type.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// endpointLabels is the bounded set of endpoint label values; every
// request maps into one of these, so label cardinality cannot grow
// with traffic.
var endpointLabels = []string{
	"challenge", "register", "activate", "login", "lookup",
	"lookup_batch", "vote", "remark", "vendor", "stats",
	"healthz", "replstatus", "repl", "metrics", "trace", "web",
}

// endpointLabel maps a request path onto its endpoint label.
func endpointLabel(path string) string {
	switch path {
	case wire.PathChallenge:
		return "challenge"
	case wire.PathRegister:
		return "register"
	case wire.PathActivate:
		return "activate"
	case wire.PathLogin:
		return "login"
	case wire.PathLookup:
		return "lookup"
	case wire.PathLookupBatch:
		return "lookup_batch"
	case wire.PathVote:
		return "vote"
	case wire.PathRemark:
		return "remark"
	case wire.PathVendor:
		return "vendor"
	case wire.PathStats:
		return "stats"
	case wire.PathHealthz:
		return "healthz"
	case wire.PathReplStatus:
		return "replstatus"
	case wire.PathMetrics:
		return "metrics"
	case wire.PathTrace:
		return "trace"
	}
	if strings.HasPrefix(path, "/repl/") {
		return "repl"
	}
	return "web"
}

// formats and status classes index the precomputed counter grid.
var formatLabels = []string{"xml", "binary"}
var classLabels = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

func classIdx(status int) int {
	i := status/100 - 1
	if i < 0 {
		i = 0
	}
	if i > 4 {
		i = 4
	}
	return i
}

// endpointSeries is one endpoint's precomputed hot-path cells: a
// latency histogram and a [format][status-class] counter grid, so the
// per-request cost is array indexing plus atomic adds — no map
// lookups, no label rendering.
type endpointSeries struct {
	hist     *telemetry.Histogram
	requests [2][5]*telemetry.Counter
}

// serverTelemetry owns the server's registry, trace ring, and
// precomputed series. All methods are safe on a nil receiver, so the
// DisableTelemetry ablation costs a single pointer test per call site.
type serverTelemetry struct {
	reg   *telemetry.Registry
	trace *telemetry.TraceBuffer

	endpoints map[string]*endpointSeries

	binFramesIn  *telemetry.Counter
	binFramesOut *telemetry.Counter
	binBytesIn   *telemetry.Counter
	binBytesOut  *telemetry.Counter
	binMalformed *telemetry.Counter
	batchEntries *telemetry.Counter
}

// newServerTelemetry builds the registry for one server: the HTTP
// request families plus bridges into every subsystem the server
// composes. It must run after the server's admission controller,
// report cache, and store are wired.
func newServerTelemetry(s *Server, reg *telemetry.Registry, traceSlow time.Duration) *serverTelemetry {
	t := &serverTelemetry{
		reg:       reg,
		trace:     telemetry.NewTraceBuffer(0, traceSlow),
		endpoints: make(map[string]*endpointSeries, len(endpointLabels)),
	}

	// --- server (HTTP) ---
	for _, ep := range endpointLabels {
		es := &endpointSeries{
			hist: reg.Histogram("reputation_http_request_seconds",
				"Request latency through the full middleware chain, by endpoint.",
				telemetry.DefaultLatencyBuckets, telemetry.L("endpoint", ep)),
		}
		for fi, format := range formatLabels {
			for ci, class := range classLabels {
				es.requests[fi][ci] = reg.Counter("reputation_http_requests_total",
					"Requests served, by endpoint, wire format, and status class.",
					telemetry.Labels{{"endpoint", ep}, {"format", format}, {"code", class}})
			}
		}
		t.endpoints[ep] = es
	}
	reg.GaugeFunc("reputation_http_inflight",
		"Requests currently inside the handler chain.", nil,
		func() float64 { return float64(s.InflightRequests()) })
	reg.CounterFunc("reputation_http_trace_events_total",
		"Notable (slow or errored) requests recorded in the trace ring.", nil,
		t.trace.Total)

	// --- resilience (the server's self-protection gates) ---
	reg.CounterFunc("reputation_resilience_shed_total",
		"Requests refused by the shedding gates: drain, static cap, or admission.", nil,
		func() uint64 { return uint64(s.ShedCount()) })
	reg.GaugeFunc("reputation_resilience_draining",
		"1 while the server refuses new work for shutdown.", nil,
		func() float64 { return boolGauge(s.Draining()) })

	// --- admission ---
	reg.GaugeFunc("reputation_admission_limit",
		"Concurrency limit: the AIMD estimate, or the static cap without admission control.", nil,
		func() float64 {
			if s.admit != nil {
				return float64(s.admit.Limit())
			}
			return float64(s.cfg.MaxInflight)
		})
	reg.GaugeFunc("reputation_admission_brownout_level",
		"Brownout ladder position: 0 full service, higher is more degraded.", nil,
		func() float64 { return float64(s.BrownoutLevel()) })
	if s.admit != nil {
		reg.GaugeFunc("reputation_admission_inflight",
			"Requests currently holding an admission slot.", nil,
			func() float64 { return float64(s.admit.Snapshot().Inflight) })
		for cl := admission.Critical; cl < admission.NumClasses; cl++ {
			cl := cl
			for _, oc := range []struct {
				name string
				get  func(admission.ClassCounters) uint64
			}{
				{"admitted", func(c admission.ClassCounters) uint64 { return c.Admitted }},
				{"shed", func(c admission.ClassCounters) uint64 { return c.Shed }},
				{"throttled", func(c admission.ClassCounters) uint64 { return c.Throttled }},
				{"queued", func(c admission.ClassCounters) uint64 { return c.Queued }},
			} {
				get := oc.get
				reg.CounterFunc("reputation_admission_requests_total",
					"Admission decisions, by priority class and outcome.",
					telemetry.Labels{{"class", cl.String()}, {"outcome", oc.name}},
					func() uint64 { return get(s.admit.Snapshot().Classes[cl]) })
			}
		}
	}

	// --- repcache ---
	if s.reports != nil {
		cacheCounter := func(name, help string, get func() uint64) {
			reg.CounterFunc(name, help, nil, get)
		}
		cacheCounter("reputation_repcache_hits_total", "Report cache hits.",
			func() uint64 { return s.reports.Stats().Hits })
		cacheCounter("reputation_repcache_misses_total", "Report cache misses.",
			func() uint64 { return s.reports.Stats().Misses })
		cacheCounter("reputation_repcache_evictions_total", "Entries evicted by the capacity bound.",
			func() uint64 { return s.reports.Stats().Evicted })
		cacheCounter("reputation_repcache_singleflight_collapsed_total",
			"Lookups that piggy-backed on another goroutine's in-flight fill.",
			func() uint64 { return s.reports.Stats().Collapsed })
		cacheCounter("reputation_repcache_invalidations_total", "Invalidate and InvalidateAll calls.",
			func() uint64 { return s.reports.Stats().Invalidations })
		cacheCounter("reputation_repcache_rejected_fills_total",
			"Fills discarded because their owner was invalidated mid-flight.",
			func() uint64 { return s.reports.Stats().Rejected })
		reg.GaugeFunc("reputation_repcache_entries", "Cached pre-encoded reports.", nil,
			func() float64 { return float64(s.reports.Stats().Entries) })
	}

	// --- storedb ---
	db := s.store.DB()
	reg.GaugeFunc("reputation_storedb_failed",
		"1 while the store is in its sticky failed (read-only) state.", nil,
		func() float64 { return boolGauge(db.Failed()) })
	reg.CounterFunc("reputation_storedb_reopens_total",
		"Successful Reopen recoveries from the failed state.", nil,
		func() uint64 { return db.Health().Reopens })
	reg.CounterFunc("reputation_storedb_wal_groups_total",
		"Commit groups flushed (one WAL write each).", nil,
		func() uint64 { return db.Health().Groups })
	reg.CounterFunc("reputation_storedb_wal_batches_total",
		"Batches made durable across all commit groups.", nil,
		func() uint64 { return db.Health().Batches })
	reg.CounterFunc("reputation_storedb_wal_fsyncs_total",
		"WAL fsyncs issued.", nil,
		func() uint64 { return db.Health().Fsyncs })
	reg.CounterFunc("reputation_storedb_wal_bytes_total",
		"Bytes appended durably to the WAL.", nil,
		func() uint64 { return db.Health().WALBytes })
	reg.GaugeFunc("reputation_storedb_corrupt",
		"1 while the store is in its sticky corrupt (read-only) state.", nil,
		func() float64 { return boolGauge(db.Corrupt()) })
	reg.CounterFunc("reputation_storedb_corruptions_total",
		"Checksum mismatches found by scrub or a read path.", nil,
		func() uint64 { return db.Health().Corruptions })
	reg.CounterFunc("reputation_storedb_compactions_total",
		"Snapshot compactions completed (background or inline).", nil,
		func() uint64 { return db.Health().Compactions })
	reg.GaugeFunc("reputation_storedb_compactor_lag",
		"Committed batches the newest snapshot trails the commit head by.", nil,
		func() float64 { return float64(db.Health().CompactorLag) })
	reg.CounterFunc("reputation_storedb_scrub_runs_total",
		"Completed online scrub passes.", nil,
		func() uint64 { return db.Health().ScrubRuns })
	reg.CounterFunc("reputation_storedb_scrub_blocks_total",
		"Checksummed units (snapshot blocks and WAL frames) verified by scrub.", nil,
		func() uint64 { return db.Health().ScrubBlocks })
	reg.GaugeFunc("reputation_storedb_last_scrub_unix",
		"Unix time the newest scrub pass finished; 0 when none has run.", nil,
		func() float64 { return float64(db.Health().LastScrubUnix) })

	// --- replication (the serving side; a replica's puller registers
	// its own counters via replication.Replica.RegisterMetrics) ---
	reg.GaugeFunc("reputation_replication_seq",
		"Last durable batch sequence number.", nil,
		func() float64 { return float64(s.store.Seq()) })
	reg.GaugeFunc("reputation_replication_epoch",
		"Promotion epoch contained in committed history.", nil,
		func() float64 { return float64(s.Epoch()) })
	reg.GaugeFunc("reputation_replication_fenced",
		"1 while a higher epoch has been observed and writes are refused.", nil,
		func() float64 { return boolGauge(s.Fenced()) })
	reg.GaugeFunc("reputation_replication_lag",
		"Batches this server trails the primary; 0 on the primary.", nil,
		func() float64 { return float64(s.replLag()) })
	reg.GaugeFunc("reputation_replication_is_replica",
		"1 while serving in the replica role.", nil,
		func() float64 { return boolGauge(s.IsReplica()) })

	// --- wire (binary protocol) ---
	t.binFramesIn = reg.Counter("reputation_wire_binary_frames_total",
		"Binary frames moved, by direction.", telemetry.L("dir", "in"))
	t.binFramesOut = reg.Counter("reputation_wire_binary_frames_total",
		"Binary frames moved, by direction.", telemetry.L("dir", "out"))
	t.binBytesIn = reg.Counter("reputation_wire_binary_bytes_total",
		"Binary frame payload bytes moved, by direction.", telemetry.L("dir", "in"))
	t.binBytesOut = reg.Counter("reputation_wire_binary_bytes_total",
		"Binary frame payload bytes moved, by direction.", telemetry.L("dir", "out"))
	t.binMalformed = reg.Counter("reputation_wire_malformed_frames_total",
		"Inbound binary frames rejected as malformed (answered 400, connection kept).", nil)
	t.batchEntries = reg.Counter("reputation_wire_batch_entries_total",
		"Lookup entries served through /api/lookup-batch frames.", nil)

	return t
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observe records one completed request into the counter grid and the
// latency histogram.
func (t *serverTelemetry) observe(path string, binary bool, status int, d time.Duration) {
	es := t.endpoints[endpointLabel(path)]
	fi := 0
	if binary {
		fi = 1
	}
	es.requests[fi][classIdx(status)].Inc()
	es.hist.Observe(d.Seconds())
}

// Wire-level recorders, nil-safe so handler code can call them
// unconditionally.

func (t *serverTelemetry) binaryFrameIn(n int) {
	if t == nil {
		return
	}
	t.binFramesIn.Inc()
	t.binBytesIn.Add(uint64(n))
}

func (t *serverTelemetry) binaryFrameOut(n int) {
	if t == nil {
		return
	}
	t.binFramesOut.Inc()
	t.binBytesOut.Add(uint64(n))
}

func (t *serverTelemetry) binaryMalformed() {
	if t == nil {
		return
	}
	t.binMalformed.Inc()
}

func (t *serverTelemetry) batchServed(entries int) {
	if t == nil {
		return
	}
	t.batchEntries.Add(uint64(entries))
}

// Metrics returns the server's metric registry, nil when telemetry is
// disabled. The daemon shares it with the optional -metrics listener.
func (s *Server) Metrics() *telemetry.Registry {
	if s.tel == nil {
		return nil
	}
	return s.tel.reg
}

// Trace returns the server's notable-request ring, nil when telemetry
// is disabled.
func (s *Server) Trace() *telemetry.TraceBuffer {
	if s.tel == nil {
		return nil
	}
	return s.tel.trace
}

// handleMetrics serves GET /metrics: the whole registry in the
// Prometheus text exposition format. Like /healthz it bypasses the
// admission gate — the scrape must succeed precisely when the server
// is shedding.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", MetricsContentType)
	_ = s.tel.reg.WritePrometheus(w)
}

// handleTrace serves GET /trace: the notable-request ring, newest
// first, one line per event.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.tel.trace.WriteText(w)
}
