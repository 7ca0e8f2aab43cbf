// Command reputationd runs the reputation server: the XML API under
// /api/, the HTML web view on /, a periodic 24-hour aggregation job,
// and durable storage in the data directory.
//
// Activation tokens are printed to standard output (a deployment would
// plug an SMTP Mailer into server.Config instead).
//
// Operational surfaces: /metrics serves the whole registry in the
// Prometheus text format (on the main listener, and additionally on
// the -metrics address when set), /trace serves the ring of recent
// slow or errored requests, and everything the daemon logs is
// structured key=value at the level selected by -log-level.
//
// Usage:
//
//	reputationd -addr :8080 -data ./data -pepper "a long secret"
//	reputationd -addr :8081 -data ./replica -pepper "a long secret" \
//	    -role replica -primary http://primary:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the -pprof listener
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/replication"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// stdoutMailer prints activation mail instead of sending it.
type stdoutMailer struct{ log *telemetry.Logger }

func (m stdoutMailer) SendActivation(email, username, token string) {
	m.log.Info("activation mail", "email", email, "user", username, "token", token)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "./reputationd-data", "data directory")
	pepper := flag.String("pepper", "", "secret string for e-mail hashing (required)")
	captcha := flag.Bool("captcha", true, "require CAPTCHA at registration")
	puzzle := flag.Int("puzzle", 0, "client-puzzle difficulty (0 disables)")
	sync := flag.Bool("sync", false, "fsync every commit")
	votesPerDay := flag.Int("votes-per-day", 0, "per-account daily vote budget (0 = unlimited)")
	pseudonyms := flag.Bool("pseudonyms", false, "publish stable pseudonyms instead of usernames")
	moderate := flag.Bool("moderate", false, "hold new comments for moderator approval (reputectl pending/approve)")
	signupsPerIP := flag.Int("signups-per-ip", 0, "per-address daily signup budget (0 = unlimited)")
	aggEvery := flag.Duration("aggregate-check", 10*time.Minute, "how often to check the 24h aggregation schedule")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request handler deadline (0 disables)")
	maxInflight := flag.Int("max-inflight", 256, "concurrent request cap before shedding (0 = uncapped; the adaptive limiter's ceiling with -admission)")
	adaptive := flag.Bool("admission", false, "adaptive priority-aware admission control instead of the static inflight cap")
	latencyTarget := flag.Duration("admission-latency", 50*time.Millisecond, "handler latency the adaptive limiter steers toward")
	grace := flag.Duration("grace", 10*time.Second, "drain window for in-flight requests at shutdown")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on this address for live profiling (empty disables)")
	metricsAddr := flag.String("metrics", "", "additionally expose /metrics and /trace on this address (they are always on the main listener)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	reportCache := flag.Int("report-cache", 0, "report cache capacity in entries (0 = default, negative disables)")
	role := flag.String("role", "primary", "replication role: primary or replica")
	primaryURL := flag.String("primary", "", "primary base URL (required with -role replica)")
	replicaID := flag.String("replica-id", "", "this node's identifier in a peer's /replstatus when it pulls or repairs (defaults to the listen address)")
	replPoll := flag.Duration("repl-poll", time.Second, "recovery interval: how often the node re-checks its store (repair when corrupt, reopen when failed, then a replica pulls the primary's WAL); failures back off to 30s")
	scrubEvery := flag.Duration("scrub-every", 0, "online scrub interval: re-verify every durable checksum this often (0 disables)")
	repairFrom := flag.String("repair-from", "", "healthy peer base URL to repair the store from when scrub detects corruption (replicas default to -primary)")
	flag.Parse()

	logger := telemetry.NewLogger(os.Stderr, telemetry.ParseLogLevel(*logLevel))
	fatal := func(msg string, kv ...interface{}) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}

	if *pepper == "" {
		fatal("-pepper is required; the e-mail hash is only private while the secret string is")
	}
	isReplica := false
	switch *role {
	case "primary":
	case "replica":
		isReplica = true
		if *primaryURL == "" {
			fatal("-role replica requires -primary")
		}
	default:
		fatal("unknown -role (want primary or replica)", "role", *role)
	}

	store, err := repo.Open(storedb.Options{Dir: *dataDir, SyncWrites: *sync, ScrubEvery: *scrubEvery})
	if err != nil {
		fatal("open store failed", "dir", *dataDir, "err", err)
	}
	defer store.Close()

	scfg := server.Config{
		Store:                 store,
		EmailPepper:           *pepper,
		RequireCaptcha:        *captcha,
		PuzzleDifficulty:      *puzzle,
		MaxVotesPerUserPerDay: *votesPerDay,
		UsePseudonyms:         *pseudonyms,
		ModerateComments:      *moderate,
		MaxSignupsPerIPPerDay: *signupsPerIP,
		RequestTimeout:        *reqTimeout,
		MaxInflight:           *maxInflight,
		ReportCacheEntries:    *reportCache,
		Mailer:                stdoutMailer{log: logger},
	}
	if *adaptive {
		scfg.AdmissionControl = true
		scfg.Admission = admission.Config{
			MaxLimit:      *maxInflight,
			LatencyTarget: *latencyTarget,
		}
	}
	var repl *replication.Replica
	// Every role mounts the publisher endpoints: replicas serve
	// /repl/snapshot and /repl/digest too, so a corrupt primary can
	// repair itself from any healthy peer — not only the other way
	// around.
	pub := replication.NewPublisher(store.DB())
	scfg.Publisher = pub
	// One id names this node to its peers, whether it pulls or repairs.
	nodeID := *replicaID
	if nodeID == "" {
		nodeID = *addr
	}
	if isReplica {
		repl = &replication.Replica{
			DB:      store.DB(),
			Primary: *primaryURL,
			ID:      nodeID,
			Logger:  logger,
			// Divergence repair quarantines displaced batches here —
			// writes acked by a deposed primary that the new epoch never
			// saw. `reputectl -data <dir> journal` lists them.
			Journal: &replication.RecoveryJournal{Path: filepath.Join(*dataDir, "recovery-journal")},
		}
		scfg.Replica = true
		scfg.PrimaryURL = *primaryURL
		scfg.ReplicaSource = repl
	} else {
		scfg.ReplicaTracker = pub
	}
	srv, err := server.New(scfg)
	if err != nil {
		fatal("server init failed", "err", err)
	}
	if repl != nil && srv.Metrics() != nil {
		repl.RegisterMetrics(srv.Metrics())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The node's one recovery loop. A store the scrubber (or any read
	// path) found corrupt is quarantined and restored from a healthy
	// peer: replicas repair from their primary by default, a primary
	// needs -repair-from naming one of its replicas. A store failed by a
	// WAL append or fsync (writes shed 503, reads keep serving) is
	// reopened with verification until the device recovers. A healthy
	// replica tails its primary; replicas do not run the aggregation
	// job, because published scores arrive through the WAL.
	var repairer *replication.Repairer
	repairSource := *repairFrom
	if repairSource == "" && isReplica {
		repairSource = *primaryURL
	}
	if repairSource != "" {
		repairer = &replication.Repairer{
			DB:     store.DB(),
			Source: repairSource,
			ID:     nodeID,
			Logger: logger,
		}
		if srv.Metrics() != nil {
			repairer.RegisterMetrics(srv.Metrics())
		}
	}
	go replication.Supervise(ctx, store.DB(), repl, repairer, *replPoll, logger)

	// Auxiliary listeners (pprof, metrics) get the same lifecycle as the
	// API listener: header timeouts against slow-loris peers and a
	// graceful shutdown tied to the drain, so the process never leaks a
	// listener past its drain window.
	serveAux := func(name, addr string, handler http.Handler) {
		aux := &http.Server{
			Addr:              addr,
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
			defer cancel()
			_ = aux.Shutdown(shutdownCtx)
		}()
		go func() {
			logger.Info(name+" listener up", "addr", addr)
			if err := aux.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error(name+" listener failed", "addr", addr, "err", err)
			}
		}()
	}

	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener so they are
		// never exposed on the public API address. http.DefaultServeMux
		// carries the pprof registrations from the blank import.
		serveAux("pprof", *pprofAddr, http.DefaultServeMux)
	}
	if *metricsAddr != "" && srv.Metrics() != nil {
		// The server's own routes: GET-only, outside admission and drain.
		mux, h := http.NewServeMux(), srv.Handler()
		mux.Handle(wire.PathMetrics, h)
		mux.Handle(wire.PathTrace, h)
		serveAux("metrics", *metricsAddr, mux)
	}

	if !isReplica {
		// The 24-hour aggregation job: the schedule itself lives in the
		// store, so the ticker only needs to poll it.
		go func() {
			ticker := time.NewTicker(*aggEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if ran, err := srv.MaybeAggregate(); err != nil {
						logger.Error("aggregation failed", "err", err)
					} else if ran {
						logger.Info("aggregation run complete")
					}
				}
			}
		}()
	}

	// Socket-level timeouts guard against slow-loris peers; the
	// per-handler deadline lives in server.Config.RequestTimeout.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// ListenAndServe returns the moment Shutdown closes the listener,
	// before in-flight requests have drained — main must wait for
	// Shutdown itself to return or the process exit kills the drain.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Graceful shutdown: refuse new work first (clients see 503 +
		// Retry-After and fail over), then drain in-flight requests.
		logger.Info("draining for shutdown", "grace", *grace)
		srv.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		// Shutdown does not know the sessions' connections; each closes
		// once it has answered its in-flight call.
		_ = srv.WaitSessions(shutdownCtx)
	}()

	st, _ := store.Stats()
	fmt.Printf("reputationd: serving on %s as %s (data %s: %d users, %d software, %d ratings)\n",
		*addr, *role, *dataDir, st.Users, st.Software, st.Ratings)
	logger.Info("serving", "addr", *addr, "role", *role, "data", *dataDir,
		"users", st.Users, "software", st.Software, "ratings", st.Ratings)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", "addr", *addr, "err", err)
	}
	<-drained
	logger.Info("shut down")
}
