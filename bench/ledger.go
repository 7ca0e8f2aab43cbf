//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/repcache"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// The ledger is the traced run: single-threaded and in-process, against
// a stack built from the public constructors with the daemon's
// settings. It measures each layer from outside, in two ways:
//
//   - wrapper spans around the real request path (client.call,
//     client.roundtrip, server.handler), replaying the workload's own
//     requests over a loopback socket;
//   - direct-call spans: each layer's public functions called on the
//     workload's inputs.
//
// Then it asks how much of the handler's time the layer medians, times
// the calls the path makes, explain. The rest is the finding.

// daemonConfig mirrors what cmd/reputationd builds from its default
// flags plus -admission (replication endpoints left out: they only add
// routes).
func daemonConfig(store *repo.Store) server.Config {
	return server.Config{
		Store:            store,
		EmailPepper:      pepper,
		RequireCaptcha:   true,
		RequestTimeout:   10 * time.Second,
		MaxInflight:      256,
		AdmissionControl: true,
		Admission:        daemonAdmission,
	}
}

var daemonAdmission = admission.Config{MaxLimit: 256, LatencyTarget: 50 * time.Millisecond}

// infoOf is the wire form of a program's metadata, as the client sends
// it.
func infoOf(m core.SoftwareMeta) wire.SoftwareInfo {
	return wire.SoftwareInfo{ID: m.ID.String(), FileName: m.FileName, FileSize: m.FileSize, Vendor: m.Vendor, Version: m.Version}
}

// callBatch is how many back-to-back calls one direct-call span times.
const callBatch = 64

// ledger holds the traced run's state.
type ledger struct {
	tr  *tracer
	res *runResult
	ns  map[string]float64 // median ns per call, by metric name
}

// direct times calls of fn (i = 0..n-1) in spans of callBatch calls
// and records the median ns per call under name. unit scales it to the
// metric's unit (1 for ns, 1e3 for µs).
func (l *ledger) direct(name string, unit float64, n int, fn func(i int)) {
	l.directRefill(name, unit, n, fn, nil)
}

// directRefill is direct for calls that use their input up: refill(lo,
// hi) runs untimed after the span over calls lo..hi-1.
func (l *ledger) directRefill(name string, unit float64, n int, fn func(i int), refill func(lo, hi int)) {
	var perCall []float64
	for lo := 0; lo < n; lo += callBatch {
		hi := min(lo+callBatch, n)
		id := l.tr.begin(name, "", hi-lo)
		for i := lo; i < hi; i++ {
			fn(i)
		}
		perCall = append(perCall, float64(l.tr.end(id))/float64(hi-lo))
		if refill != nil {
			refill(lo, hi)
		}
	}
	sum := summarise(perCall)
	l.ns[name] = sum.median
	l.res.Metrics[name] = metric{Value: sum.median / unit, Unit: unitOf(name), Q1: sum.q1 / unit, Q3: sum.q3 / unit, N: n}
}

// must turns a layer error inside a timed call into a run failure: the
// ledger's inputs are chosen so that no call fails.
func (l *ledger) must(what string, err error) {
	if err != nil {
		l.res.Failed++
		l.res.notef("FAILED ledger call %s: %v", what, err)
	}
}

// runLedger produces the ledger metrics of wl on store (the data dir the
// daemon left behind) and writes the spans to cfg.outDir. used are the
// paper_mix stream positions the end-to-end phase has spent: votes before
// them are cast already.
func runLedger(ctx context.Context, cfg *runConfig, cat *catalogue, wl *workload, store *repo.Store, used [numWorkers]int, res *runResult) error {
	l := &ledger{tr: newTracer(), res: res, ns: map[string]float64{}}
	srv, err := server.New(daemonConfig(store))
	if err != nil {
		return err
	}

	// The request path: the daemon's http.Server settings on a loopback
	// listener in this process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	handler := srv.Handler()
	var traced atomic.Bool
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if traced.Load() {
				tracedHandler{next: handler, tr: l.tr}.ServeHTTP(w, r)
				return
			}
			handler.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close below
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	plain := client.NewTransport()
	defer plain.CloseIdleConnections()
	tgt := target{api: newAPI(base, &http.Client{Transport: plain}, wl.binary)}
	if tgt.sessions, err = loginAll(ctx, tgt.api, cat); err != nil {
		return err
	}

	// The replay alternates untraced and traced blocks of worker 0's
	// stream until each kind has done ledgerN operations, so that a drift
	// of the host's speed falls on both alike.
	// It starts where worker 0 stands (which matters only if wl votes); the
	// direct write calls below take their votes from worker 1's stream.
	from, voteFrom := used[0], used[1]/mixPeriod+1
	untracedAPI := tgt.api
	tracedAPI := newAPI(base, &http.Client{Transport: tracedTransport{next: plain, tr: l.tr}}, wl.binary)
	untraced, tracedPass := pass{next: from}, pass{}
	var hits, misses uint64
	block := max(cfg.ledgerN/ledgerBlocks, 1)
	for untraced.ops < cfg.ledgerN && ctx.Err() == nil {
		tgt.api = untracedAPI
		l.replay(ctx, cat, wl, &tgt, &untraced, block, false)
		tracedPass.next = untraced.next
		traced.Store(true)
		tgt.api = tracedAPI
		before := srv.ReportCacheStats()
		l.replay(ctx, cat, wl, &tgt, &tracedPass, block, true)
		after := srv.ReportCacheStats()
		traced.Store(false)
		hits, misses = hits+after.Hits-before.Hits, misses+after.Misses-before.Misses
		untraced.next = tracedPass.next
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.Metrics.set("trace.overhead_frac", tracedPass.medianCallNs()/untraced.medianCallNs()-1, tracedPass.requests)

	// Wrapper-span metrics, per logical operation.
	self := selfTimes(l.tr.spans)
	var callSelf, rtSelf, handlerDur []float64
	var handlerTotal float64
	opsOf := map[string]float64{}
	for i := range l.tr.spans {
		if s := &l.tr.spans[i]; s.Name == "client.call" {
			opsOf[s.Req] = float64(s.Calls)
		}
	}
	for i := range l.tr.spans {
		s := &l.tr.spans[i]
		ops := opsOf[s.Req]
		switch s.Name {
		case "client.call":
			callSelf = append(callSelf, float64(self[s.ID])/ops/1e3)
		case "client.roundtrip":
			rtSelf = append(rtSelf, float64(self[s.ID])/ops/1e3)
		case "server.handler":
			handlerDur = append(handlerDur, float64(s.dur())/ops/1e3)
			handlerTotal += float64(s.dur())
		}
	}
	res.Metrics.setSummary("client.call_self_us", summarise(callSelf), len(callSelf))
	res.Metrics.setSummary("server.socket_http_us", summarise(rtSelf), len(rtSelf))
	res.Metrics.setSummary("server.handler_inproc_us", summarise(handlerDur), len(handlerDur))

	// Direct calls, on the programs the traced pass looked up.
	progs := tracedPass.progs
	if len(progs) == 0 {
		return fmt.Errorf("ledger: %s replayed no lookup", wl.name)
	}
	in, err := newLayerInputs(cat, progs, handler, tgt.sessions[0])
	if err != nil {
		return err
	}
	n := len(progs)
	l.wireCalls(in, n)
	l.serverCalls(cat, in, srv, handler, wl, tgt.sessions, n, voteFrom)
	l.admissionCalls(ctx, n)
	l.repcacheCalls(in, n)
	l.repoCalls(cat, in, store, n, voteFrom+ledgerVotes)
	if err := l.storedbCalls(cat, store, cfg.workDir, n); err != nil {
		return err
	}

	l.explain(wl, &tracedPass, hits, misses, handlerTotal)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := l.tr.write(path); err != nil {
		return err
	}
	res.notef("ledger: %d spans written to %s", len(l.tr.spans), path)
	return nil
}

// ledgerBlocks is how many untraced/traced block pairs the replay is cut
// into.
const ledgerBlocks = 20

// ledgerVotes is how many unused (user, program) pairs each direct
// write benchmark takes from worker 1's vote stream.
const ledgerVotes = 1024

// pass is what the replayed blocks of one kind (untraced or traced)
// add up to.
type pass struct {
	next     int // stream position after the latest block
	ops      int // logical operations
	requests int
	votes    int
	frames   int       // batch frames
	progs    []int     // lookup targets, in order
	callNs   []float64 // caller-observed time of every request
}

func (p *pass) medianCallNs() float64 {
	sort.Float64s(p.callNs)
	return quantile(p.callNs, 0.5)
}

// replay sends worker 0's requests from position p.next until ops more
// logical operations are done, one at a time. With spans on, each
// request gets a client.call span (the transport and handler wrappers
// add theirs).
func (l *ledger) replay(ctx context.Context, cat *catalogue, wl *workload, tgt *target, p *pass, ops int, spans bool) {
	var o op
	for done := 0; done < ops && ctx.Err() == nil; p.next++ {
		wl.gen(cat, 0, p.next, &o)
		rctx, id := ctx, 0
		if spans {
			req := telemetry.NewRequestID()
			rctx = client.WithRequestID(ctx, req)
			id = l.tr.begin("client.call", req, o.ops())
		}
		start := time.Now()
		failed, why := cat.execute(rctx, tgt, &o)
		p.callNs = append(p.callNs, float64(time.Since(start)))
		if spans {
			l.tr.end(id)
		}
		l.res.Attempted += o.ops()
		if failed > 0 {
			l.res.Failed += failed
			l.res.notef("FAILED ledger replay: %s", why)
		}
		done += o.ops()
		p.ops += o.ops()
		p.requests++
		switch o.kind {
		case opVote:
			p.votes++
		case opBatch:
			p.frames++
			p.progs = append(p.progs, o.progs...)
		default:
			p.progs = append(p.progs, o.progs...)
		}
	}
}

// lookupInput is one program's share of the direct calls' arguments:
// its requests and the reports the handler answers them with, in both
// encodings.
type lookupInput struct {
	meta      core.SoftwareMeta
	binReq    []byte // binary lookup request frame
	xmlReq    []byte // XML lookup request document
	binReport []byte // binary report frame
	xmlReport []byte
	report    wire.LookupResponse
	authors   []string // comment authors
}

// layerInputs are the direct calls' arguments, derived from the traced
// pass's lookup targets (cycled through with their repetition, so the
// calls see the workload's skew).
type layerInputs struct {
	progs   []int
	at      []*lookupInput // by position in progs; one value per distinct program
	batch   []byte         // one batchSize-entry batch frame
	xmlVote []byte
}

// newLayerInputs builds the inputs, fetching each distinct program's
// report once from the handler in both encodings.
func newLayerInputs(cat *catalogue, progs []int, handler http.Handler, session string) (*layerInputs, error) {
	in := &layerInputs{progs: progs}
	fetch := func(contentType string, body []byte) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, wire.PathLookup, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("ledger: lookup replay answered %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}
	seen := map[int]*lookupInput{}
	for _, p := range progs {
		e := seen[p]
		if e == nil {
			e = &lookupInput{meta: cat.programs[p].meta}
			seen[p] = e
			req := wire.LookupRequest{Software: infoOf(e.meta)}
			e.binReq = wire.EncodeBinaryLookup(&req)
			var buf bytes.Buffer
			if err := wire.Encode(&buf, req); err != nil {
				return nil, err
			}
			e.xmlReq = buf.Bytes()
			var err error
			if e.binReport, err = fetch(wire.BinaryContentType, e.binReq); err != nil {
				return nil, err
			}
			if e.xmlReport, err = fetch(wire.ContentType, e.xmlReq); err != nil {
				return nil, err
			}
			payload, _, err := wire.SplitBinaryFrame(e.binReport)
			if err != nil {
				return nil, err
			}
			if e.report, err = wire.DecodeBinaryReport(payload); err != nil {
				return nil, err
			}
			for _, c := range e.report.Comments {
				e.authors = append(e.authors, c.User)
			}
		}
		in.at = append(in.at, e)
	}
	infos := make([]wire.SoftwareInfo, 0, batchSize)
	for i := 0; i < batchSize; i++ {
		infos = append(infos, infoOf(in.at[i%len(in.at)].meta))
	}
	in.batch = wire.EncodeBinaryLookupBatch(infos, nil)
	var buf bytes.Buffer
	err := wire.Encode(&buf, wire.VoteRequest{Session: session, Software: infos[0], Score: 7, Behaviors: core.Behavior(0).String()})
	in.xmlVote = buf.Bytes()
	return in, err
}

func (l *ledger) wireCalls(in *layerInputs, n int) {
	l.direct("wire.bin_lookup_encode_ns", 1, n, func(i int) {
		req := wire.LookupRequest{Software: infoOf(in.at[i].meta)}
		_ = wire.EncodeBinaryLookup(&req)
	})
	l.direct("wire.bin_lookup_decode_ns", 1, n, func(i int) {
		payload, _, err := wire.SplitBinaryFrame(in.at[i].binReq)
		if err == nil {
			_, err = wire.DecodeBinaryLookup(payload)
		}
		l.must("DecodeBinaryLookup", err)
	})
	l.direct("wire.bin_report_encode_ns", 1, n, func(i int) {
		_ = wire.EncodeBinaryReport(&in.at[i].report)
	})
	l.direct("wire.bin_report_decode_ns", 1, n, func(i int) {
		payload, _, err := wire.SplitBinaryFrame(in.at[i].binReport)
		if err == nil {
			_, err = wire.DecodeBinaryReport(payload)
		}
		l.must("DecodeBinaryReport", err)
	})
	frames := max(n/batchSize, callBatch)
	l.direct("wire.bin_batch_decode_ns_per_entry", 1, frames, func(int) {
		payload, _, err := wire.SplitBinaryFrame(in.batch)
		if err == nil {
			_, _, err = wire.DecodeBinaryLookupBatch(payload)
		}
		l.must("DecodeBinaryLookupBatch", err)
	})
	l.perEntry("wire.bin_batch_decode_ns_per_entry")
	// The XML codec costs tens of microseconds a call; a quarter of the
	// calls keeps the traced run inside its time budget.
	nx := max(n/4, callBatch)
	l.direct("wire.xml_lookup_decode_ns", 1, nx, func(i int) {
		var req wire.LookupRequest
		l.must("Decode(LookupRequest)", wire.Decode(bytes.NewReader(in.at[i].xmlReq), &req))
	})
	var buf bytes.Buffer
	l.direct("wire.xml_report_encode_ns", 1, nx, func(i int) {
		buf.Reset()
		l.must("Encode(LookupResponse)", wire.Encode(&buf, &in.at[i].report))
	})
	l.direct("wire.xml_report_decode_ns", 1, nx, func(i int) {
		var resp wire.LookupResponse
		l.must("Decode(LookupResponse)", wire.Decode(bytes.NewReader(in.at[i].xmlReport), &resp))
	})
	l.direct("wire.xml_vote_decode_ns", 1, nx, func(int) {
		var req wire.VoteRequest
		l.must("Decode(VoteRequest)", wire.Decode(bytes.NewReader(in.xmlVote), &req))
	})
}

// perEntry rescales a per-frame figure to one of the frame's entries.
func (l *ledger) perEntry(name string) {
	l.ns[name] /= batchSize
	m := l.res.Metrics[name]
	m.Value, m.Q1, m.Q3 = m.Value/batchSize, m.Q1/batchSize, m.Q3/batchSize
	l.res.Metrics[name] = m
}

func (l *ledger) serverCalls(cat *catalogue, in *layerInputs, srv *server.Server, handler http.Handler, wl *workload, sessions []string, n, voteFrom int) {
	l.direct("server.lookup_report_us", 1e3, n, func(i int) {
		_, err := srv.LookupWithFeeds(in.at[i].meta, nil)
		l.must("LookupWithFeeds", err)
	})
	l.direct("server.vote_us", 1e3, ledgerVotes, func(i int) {
		prog, user := cat.voteOf(1, voteFrom+i)
		_, err := srv.Vote(sessions[user], cat.programs[prog].meta, 5, 0, "")
		l.must("Vote", err)
	})
	// The whole handler chain without a socket: the workload's lookup
	// requests, in its protocol and framing, replayed into a recorder.
	// Requests and recorders are built beforehand, so the time and the
	// allocations are the chain's own (plus the recorder's buffer).
	body, contentType, path := func(i int) []byte { return in.at[i].binReq }, wire.BinaryContentType, wire.PathLookup
	switch {
	case !wl.binary:
		body, contentType = func(i int) []byte { return in.at[i].xmlReq }, wire.ContentType
	case wl.perFrame > 1:
		body, path = func(int) []byte { return in.batch }, wire.PathLookupBatch
	}
	reqs := make([]*http.Request, min(n, 2000))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(i)))
		reqs[i].Header.Set("Content-Type", contentType)
		recs[i] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	l.direct("server.handler_replay_us", 1e3, len(reqs), func(i int) {
		handler.ServeHTTP(recs[i], reqs[i])
		if recs[i].Code != http.StatusOK {
			l.must("handler replay", fmt.Errorf("status %d", recs[i].Code))
		}
	})
	runtime.ReadMemStats(&ms1)
	l.res.Metrics.set("server.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(reqs)), len(reqs))
}

func (l *ledger) admissionCalls(ctx context.Context, n int) {
	ctrl := admission.New(daemonAdmission)
	l.direct("admission.admit_done_ns", 1, n, func(int) {
		tk, err := ctrl.Admit(ctx, admission.Interactive, "127.0.0.1")
		l.must("Admit", err)
		tk.Done()
	})
}

func (l *ledger) repcacheCalls(in *layerInputs, n int) {
	cache := repcache.New(0)
	owner := func(i int) string { return string(in.at[i].meta.ID[:]) }
	key := func(i int) string { return repcache.FormatKey(repcache.FormatBinary, string(in.at[i].binReq)) }
	fill := func(i int) {
		_, err := cache.Do(owner(i), key(i), func() ([]byte, bool, error) { return in.at[i].binReport, true, nil })
		l.must("Do", err)
	}
	// Filled to capacity first, so that a miss also evicts, as it does
	// in the daemon once a workload is larger than the cache.
	for i := 0; i < repcache.DefaultEntries; i++ {
		k := fmt.Sprintf("filler-%d", i)
		_, _ = cache.Do(k, k, func() ([]byte, bool, error) { return in.at[0].binReport, true, nil })
	}
	// resident are the inputs whose report is cached (at most half the
	// cache's worth of distinct programs); first holds one input per
	// distinct program.
	distinct := map[int]bool{}
	var resident, first []int
	for i, p := range in.progs {
		if !distinct[p] {
			if len(distinct) == repcache.DefaultEntries/2 {
				continue
			}
			distinct[p] = true
			first = append(first, i)
			fill(i)
		}
		resident = append(resident, i)
	}
	l.direct("repcache.probe_hit_ns", 1, n, func(i int) {
		if _, ok := cache.Probe(key(resident[i%len(resident)])); !ok {
			l.must("Probe", fmt.Errorf("miss on a resident key"))
		}
	})
	// Invalidate drops an owner's entries; each span's owners are filled
	// again afterwards so that the next span has something to drop.
	l.directRefill("repcache.invalidate_ns", 1, len(first),
		func(i int) { cache.Invalidate(owner(first[i])) },
		func(lo, hi int) {
			for _, j := range first[lo:hi] {
				fill(j)
			}
		})
	// Misses last: their stores push everything above out of the cache.
	miss := 0
	l.direct("repcache.do_miss_ns", 1, n, func(i int) {
		miss++
		k := fmt.Sprintf("miss-%d", miss)
		_, err := cache.Do(k, k, func() ([]byte, bool, error) { return in.at[i].binReport, true, nil })
		l.must("Do", err)
	})
}

func (l *ledger) repoCalls(cat *catalogue, in *layerInputs, store *repo.Store, n, voteFrom int) {
	l.direct("repo.get_score_ns", 1, n, func(i int) {
		_, _, err := store.GetScore(in.at[i].meta.ID)
		l.must("GetScore", err)
	})
	l.direct("repo.get_software_ns", 1, n, func(i int) {
		_, _, err := store.GetSoftware(in.at[i].meta.ID)
		l.must("GetSoftware", err)
	})
	now := time.Now()
	l.direct("repo.ensure_software_ns", 1, n, func(i int) {
		_, err := store.EnsureSoftware(in.at[i].meta, now)
		l.must("EnsureSoftware", err)
	})
	l.direct("repo.get_vendor_score_ns", 1, n, func(i int) {
		_, _, err := store.GetVendorScore(in.at[i].meta.Vendor)
		l.must("GetVendorScore", err)
	})
	l.direct("repo.comments_for_software_ns", 1, n, func(i int) {
		_, err := store.CommentsForSoftware(in.at[i].meta.ID)
		l.must("CommentsForSoftware", err)
	})
	l.direct("repo.trust_for_users_ns", 1, n, func(i int) {
		_, err := store.TrustForUsers(in.at[i].authors)
		l.must("TrustForUsers", err)
	})
	l.direct("repo.add_rating_us", 1e3, ledgerVotes, func(i int) {
		prog, user := cat.voteOf(1, voteFrom+i)
		_, err := store.AddRating(core.Rating{UserID: userName(user), Software: cat.programs[prog].meta.ID, Score: 5, At: now}, "")
		l.must("AddRating", err)
	})
}

// benchBucket is the ledger's own bucket in the store. Buckets share
// one tree, so a Get in it walks the same depth as any other bucket's.
const benchBucket = "bench"

func (l *ledger) storedbCalls(cat *catalogue, store *repo.Store, workDir string, n int) error {
	db := store.DB()
	keys := make([][]byte, 256)
	val := bytes.Repeat([]byte{0x5a}, 64)
	for i := range keys {
		keys[i] = cat.programs[i%len(cat.programs)].meta.ID[:]
	}
	err := db.Update(func(tx *storedb.Tx) error {
		for _, k := range keys {
			if err := tx.MustBucket(benchBucket).Put(k, val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ledger: storedb fixture: %w", err)
	}
	l.direct("storedb.view_get_ns", 1, n, func(i int) {
		l.must("View", db.View(func(tx *storedb.Tx) error {
			if _, ok := tx.MustBucket(benchBucket).Get(keys[i%len(keys)]); !ok {
				return fmt.Errorf("fixture key missing")
			}
			return nil
		}))
	})
	put := func(db *storedb.DB, i int) error {
		return db.Update(func(tx *storedb.Tx) error {
			return tx.MustBucket(benchBucket).Put(keys[i%len(keys)], val)
		})
	}
	l.direct("storedb.update_nosync_us", 1e3, ledgerVotes, func(i int) { l.must("Update", put(db, i)) })

	// The durable path, on a second small store: one fsync per commit is
	// the device's cost, so it is a per-layer figure, not an end-to-end
	// one.
	syncDir, err := os.MkdirTemp(workDir, "sync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(syncDir)
	durable, err := repo.Open(storedb.Options{Dir: syncDir, SyncWrites: true})
	if err != nil {
		return err
	}
	defer durable.Close()
	const syncCalls = 2 * callBatch
	now := time.Now()
	for i := 0; i < syncCalls; i++ {
		u := repo.User{Username: userName(i), SignedUpAt: now, Trust: core.NewTrust(now), Activated: true}
		if err := durable.CreateUser(u); err != nil {
			return fmt.Errorf("ledger: durable fixture: %w", err)
		}
	}
	if _, err := durable.UpsertSoftware(cat.programs[0].meta, now); err != nil {
		return fmt.Errorf("ledger: durable fixture: %w", err)
	}
	l.direct("storedb.update_sync_us", 1e3, syncCalls, func(i int) { l.must("Update", put(durable.DB(), i)) })
	h0 := durable.DB().Health()
	for i := 0; i < syncCalls; i++ {
		_, err := durable.AddRating(core.Rating{UserID: userName(i), Software: cat.programs[0].meta.ID, Score: 5, At: now}, "")
		l.must("AddRating (durable)", err)
	}
	h1 := durable.DB().Health()
	l.res.Metrics.set("storedb.fsyncs_per_vote", float64(h1.Fsyncs-h0.Fsyncs)/syncCalls, syncCalls)
	l.res.Metrics.set("storedb.batches_per_group", ratio(float64(h1.Batches-h0.Batches), float64(h1.Groups-h0.Groups)), int(h1.Groups-h0.Groups))
	return nil
}

// explain prices the traced pass's handler time from the layer medians:
// each request kind's path lists the layer calls it makes. What the sum
// leaves over (mux, middleware, telemetry, time-out goroutine hand-off,
// response writing, GC) is the unexplained part.
func (l *ledger) explain(wl *workload, p *pass, hits, misses uint64, handlerTotalNs float64) {
	ns := l.ns
	lookupDecode, reportEncode := ns["wire.bin_lookup_decode_ns"], ns["wire.bin_report_encode_ns"]
	if !wl.binary {
		lookupDecode, reportEncode = ns["wire.xml_lookup_decode_ns"], ns["wire.xml_report_encode_ns"]
	}
	build := ns["repo.ensure_software_ns"] + ns["repo.get_score_ns"] + ns["repo.get_vendor_score_ns"] +
		ns["repo.comments_for_software_ns"] + ns["repo.trust_for_users_ns"]
	h, m := float64(hits), float64(misses)
	type term struct {
		what  string
		calls float64
		ns    float64
	}
	terms := []term{
		{"admission Admit+Done", float64(p.requests), ns["admission.admit_done_ns"]},
		{"repcache hit", h, ns["repcache.probe_hit_ns"]},
		{"repcache miss (Do, store, evict)", m, ns["repcache.do_miss_ns"]},
		{"repo reads building a report", m, build},
		{"wire report encode", m, reportEncode},
	}
	if p.frames > 0 {
		terms = append(terms, term{"wire batch decode, per entry", h + m, ns["wire.bin_batch_decode_ns_per_entry"]})
	} else {
		// A single lookup is answered from its raw body on a hit; only a
		// miss decodes the request.
		terms = append(terms, term{"wire lookup decode", m, lookupDecode})
	}
	if p.votes > 0 {
		v := float64(p.votes)
		terms = append(terms,
			term{"wire vote decode", v, ns["wire.xml_vote_decode_ns"]},
			term{"repo EnsureSoftware (vote)", v, ns["repo.ensure_software_ns"]},
			term{"repo AddRating", v, ns["repo.add_rating_us"]},
			term{"repcache Invalidate", v, ns["repcache.invalidate_ns"]})
	}
	explained := 0.0
	for _, t := range terms {
		explained += t.calls * t.ns
	}
	l.res.Metrics.set("ledger.explained_frac", explained/handlerTotalNs, p.requests)
	l.res.notef("ledger: %d requests (%d lookups: %d cache hits, %d misses; %d votes), handler time %.1f ms",
		p.requests, len(p.progs), hits, misses, p.votes, handlerTotalNs/1e6)
	for _, t := range terms {
		l.res.notef("  %-34s %9.0f calls x %9.0f ns = %8.2f ms  %5.1f%%",
			t.what, t.calls, t.ns, t.calls*t.ns/1e6, 100*t.calls*t.ns/handlerTotalNs)
	}
	l.res.notef("  %-34s %43.2f ms  %5.1f%%", "unexplained", (handlerTotalNs-explained)/1e6, 100*(1-explained/handlerTotalNs))
}
