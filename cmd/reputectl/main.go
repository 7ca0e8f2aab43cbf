// Command reputectl administers a reputation database offline: stats,
// forced aggregation runs, bootstrap imports, and record inspection.
// Run it against the server's data directory while the daemon is
// stopped (the store is single-process).
//
// Usage:
//
//	reputectl -data ./data stats
//	reputectl -data ./data aggregate
//	reputectl -data ./data bootstrap seed.csv
//	reputectl -data ./data software <hex id>
//	reputectl -data ./data user <name>
//	reputectl -data ./data top 20
//	reputectl -data ./data journal
//	reputectl health http://localhost:8080
//	reputectl metrics http://localhost:8080 repcache
//	reputectl trace http://localhost:8080
//
// health, metrics, and trace are the online commands: they query a
// running server's observability endpoints (/healthz, /replstatus,
// /metrics, /trace) instead of opening the store. health prints the
// node's state from /healthz and /replstatus and its counts from
// /metrics: request rates, admission, the write pipeline, scrub and
// compaction.
//
// Bootstrap CSV columns: filename,vendor,version,size,score,votes,behaviors
// (behaviors is the comma-free "|"-separated flag list, e.g.
// "displays-ads|bundled-software", or empty).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"softreputation/internal/admission"
	"softreputation/internal/core"
	"softreputation/internal/replication"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

func main() {
	dataDir := flag.String("data", "./reputationd-data", "data directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("reputectl: need a command: stats | aggregate | bootstrap <csv> | software <id> | user <name> | top [n] | check | pending | approve <id> | journal | health <url> | metrics <url> [filter] | trace <url>")
	}

	// health, metrics, and trace talk to a running server over HTTP, so
	// they must not open the (single-process) store.
	switch args[0] {
	case "health", "metrics", "trace":
		if len(args) < 2 {
			log.Fatalf("reputectl: %s needs a server base URL", args[0])
		}
		var err error
		switch args[0] {
		case "health":
			err = cmdHealth(os.Stdout, args[1])
		case "metrics":
			filter := ""
			if len(args) >= 3 {
				filter = args[2]
			}
			cmdMetrics(args[1], filter)
		case "trace":
			cmdTrace(args[1])
		}
		if err != nil {
			log.Fatalf("reputectl: %v", err)
		}
		return
	}
	// journal reads the recovery journal file directly, not the store,
	// so it works alongside a running daemon.
	if args[0] == "journal" {
		cmdJournal(filepath.Join(*dataDir, "recovery-journal"))
		return
	}

	store, err := repo.Open(storedb.Options{Dir: *dataDir})
	if err != nil {
		log.Fatalf("reputectl: open store: %v", err)
	}
	defer store.Close()

	switch args[0] {
	case "stats":
		cmdStats(store)
	case "aggregate":
		cmdAggregate(store)
	case "bootstrap":
		if len(args) < 2 {
			log.Fatal("reputectl: bootstrap needs a CSV file")
		}
		cmdBootstrap(store, args[1])
	case "software":
		if len(args) < 2 {
			log.Fatal("reputectl: software needs a hex id")
		}
		cmdSoftware(store, args[1])
	case "user":
		if len(args) < 2 {
			log.Fatal("reputectl: user needs a username")
		}
		cmdUser(store, args[1])
	case "check":
		cmdCheck(store)
	case "pending":
		cmdPending(store)
	case "approve":
		if len(args) < 2 {
			log.Fatal("reputectl: approve needs a comment id")
		}
		cmdApprove(store, args[1])
	case "top":
		n := 20
		if len(args) >= 2 {
			if v, err := strconv.Atoi(args[1]); err == nil {
				n = v
			}
		}
		cmdTop(store, n)
	default:
		log.Fatalf("reputectl: unknown command %q", args[0])
	}
}

func cmdPending(store *repo.Store) {
	pending, err := store.PendingComments()
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	if len(pending) == 0 {
		fmt.Println("moderation queue is empty")
		return
	}
	for _, c := range pending {
		fmt.Printf("#%d [%s on %s] %s\n", c.ID, c.UserID, c.Software, c.Text)
	}
}

func cmdApprove(store *repo.Store, idArg string) {
	id, err := strconv.ParseUint(idArg, 10, 64)
	if err != nil {
		log.Fatalf("reputectl: bad comment id %q", idArg)
	}
	if err := store.SetCommentHidden(id, false); err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	fmt.Printf("comment #%d approved\n", id)
}

func cmdCheck(store *repo.Store) {
	problems, err := store.CheckIntegrity()
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	if len(problems) == 0 {
		fmt.Println("integrity check passed: no problems found")
		return
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	os.Exit(1)
}

func cmdStats(store *repo.Store) {
	st, err := store.Stats()
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	fmt.Printf("users     %d\nsoftware  %d\nratings   %d\ncomments  %d\nremarks   %d\n",
		st.Users, st.Software, st.Ratings, st.Comments, st.Remarks)
}

func cmdAggregate(store *repo.Store) {
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	if err := srv.RunAggregation(); err != nil {
		log.Fatalf("reputectl: aggregation: %v", err)
	}
	fmt.Println("aggregation run complete")
}

func cmdBootstrap(store *repo.Store, path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		log.Fatalf("reputectl: parse csv: %v", err)
	}
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	var entries []server.BootstrapEntry
	for i, row := range rows {
		if len(row) != 7 {
			log.Fatalf("reputectl: row %d: want 7 columns, got %d", i+1, len(row))
		}
		size, _ := strconv.ParseInt(row[3], 10, 64)
		score, _ := strconv.ParseFloat(row[4], 64)
		votes, _ := strconv.Atoi(row[5])
		behaviors, err := core.ParseBehavior(strings.ReplaceAll(row[6], "|", ","))
		if err != nil {
			log.Fatalf("reputectl: row %d: %v", i+1, err)
		}
		// Imported entries are identified by a synthetic content image:
		// filename+vendor+version, which keeps re-imports idempotent.
		content := []byte(row[0] + "\x00" + row[1] + "\x00" + row[2])
		entries = append(entries, server.BootstrapEntry{
			Meta: core.SoftwareMeta{
				ID:       core.ComputeSoftwareID(content),
				FileName: row[0],
				Vendor:   row[1],
				Version:  row[2],
				FileSize: size,
			},
			Score:     score,
			Votes:     votes,
			Behaviors: behaviors,
		})
	}
	if err := srv.Bootstrap(entries); err != nil {
		log.Fatalf("reputectl: bootstrap: %v", err)
	}
	fmt.Printf("imported %d entries\n", len(entries))
}

func cmdSoftware(store *repo.Store, hexID string) {
	id, err := core.ParseSoftwareID(hexID)
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	sw, found, err := store.GetSoftware(id)
	if err != nil || !found {
		log.Fatalf("reputectl: software not found (%v)", err)
	}
	fmt.Printf("file     %s\nvendor   %s\nversion  %s\nsize     %d\nfirst    %s\n",
		sw.Meta.FileName, sw.Meta.Vendor, sw.Meta.Version, sw.Meta.FileSize, sw.FirstSeenAt)
	sc, ok, err := store.GetScore(id)
	if err != nil {
		log.Fatalf("reputectl: score of %s: %v", hexID, err)
	}
	if ok {
		fmt.Printf("score    %.2f from %d votes\nbehavior %s\n", sc.Score, sc.Votes, sc.Behaviors)
	} else {
		fmt.Println("score    (unrated)")
	}
	comments, err := store.CommentsForSoftware(id)
	if err != nil {
		log.Fatalf("reputectl: comments on %s: %v", hexID, err)
	}
	for _, c := range comments {
		fmt.Printf("comment  [%s] %s (+%d/-%d)\n", c.UserID, c.Text, c.Positive, c.Negative)
	}
}

func cmdUser(store *repo.Store, name string) {
	u, found, err := store.GetUser(name)
	if err != nil || !found {
		log.Fatalf("reputectl: user not found (%v)", err)
	}
	fmt.Printf("username   %s\nactivated  %v\ntrust      %.1f\nsigned up  %s\nlast login %s\n",
		u.Username, u.Activated, u.Trust.Value, u.SignedUpAt, u.LastLoginAt)
	rated, _ := store.SoftwareRatedBy(name)
	fmt.Printf("rated      %d programs\n", len(rated))
}

func cmdTop(store *repo.Store, n int) {
	type row struct {
		name  string
		score float64
		votes int
	}
	var rows []row
	err := store.ForEachSoftware(func(sw repo.Software) bool {
		if sc, ok, _ := store.GetScore(sw.Meta.ID); ok && sc.Votes > 0 {
			rows = append(rows, row{sw.Meta.FileName, sc.Score, sc.Votes})
		}
		return true
	})
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].score > rows[j].score })
	if len(rows) > n {
		rows = rows[:n]
	}
	for i, r := range rows {
		fmt.Printf("%3d. %-40s %5.2f (%d votes)\n", i+1, r.name, r.score, r.votes)
	}
}

// cmdHealth prints a running server's state from /healthz and
// /replstatus — role, sequence position, lag, storage state and, on a
// primary, every known replica's progress — then its counts from
// /metrics.
func cmdHealth(w io.Writer, base string) error {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}
	row := func(label, format string, args ...interface{}) {
		fmt.Fprintf(w, "%-13s"+format+"\n", append([]interface{}{label + ":"}, args...)...)
	}

	var h wire.HealthzResponse
	if err := fetchXML(cl, base+wire.PathHealthz, &h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	row("role", "%s", h.Role)
	if h.Protocols != "" {
		row("protocols", "%s", h.Protocols)
	} else {
		row("protocols", "xml (pre-binary server)")
	}
	if h.Primary != "" {
		row("primary", "%s", h.Primary)
	}
	row("epoch", "%d", h.Epoch)
	if h.Fenced {
		row("fenced", "true (a higher epoch exists; writes refused)")
	}
	row("seq", "%d", h.Seq)
	row("lag", "%d", h.Lag)
	row("draining", "%v", h.Draining)
	if h.Brownout != "" {
		row("brownout", "%s", h.Brownout)
	} else {
		row("admission", "static cap (adaptive admission disabled)")
	}
	if st := h.Storage; st == nil {
		row("storage", "not reported (older server)")
	} else {
		row("storage", "%s", st.State)
		switch st.State {
		case wire.StorageFailed:
			row("failure", "%s", st.LastFailure)
			row("writes", "shedding 503 unavailable; reads served from last durable state")
		case wire.StorageCorrupt:
			row("failure", "%s", st.LastFailure)
			row("unit", "%s", st.CorruptUnit)
			row("writes", "shedding 503 unavailable; awaiting repair from a healthy peer")
		}
	}

	var rs wire.ReplStatusResponse
	if err := fetchXML(cl, base+wire.PathReplStatus, &rs); err != nil {
		return fmt.Errorf("replstatus: %w", err)
	}
	row("snap-seq", "%d", rs.SnapSeq)
	row("digest", "%016x", rs.Digest)
	if len(rs.Replicas) == 0 {
		row("replicas", "none tracked")
	} else {
		fmt.Fprintln(w, "replicas:")
		for _, r := range rs.Replicas {
			fmt.Fprintf(w, "  %-20s ack-seq %-8d lag %-6d snapshots %-3d last poll %s\n",
				r.ID, r.AckSeq, r.Lag, r.Snapshots, r.LastPoll)
		}
	}

	printCounts(w, row, cl, base, h.Brownout != "")
	return nil
}

// rateSampleGap separates the two /metrics samples the request- and
// error-rate figures are computed from.
const rateSampleGap = time.Second

// printCounts samples /metrics twice and prints the request and error
// rates over the gap, then from the second sample the counts: requests
// in flight, admission by class (when adaptive admission is on), the
// write pipeline — commits per WAL write and fsyncs per commit, the
// amortization group commit exists for — and self-healing. A server
// without /metrics (telemetry disabled) gets a note instead: health
// keeps working against it.
func printCounts(w io.Writer, row func(string, string, ...interface{}), cl *http.Client, base string, adaptive bool) {
	first, err := fetchText(cl, base+wire.PathMetrics)
	var second string
	if err == nil {
		time.Sleep(rateSampleGap)
		second, err = fetchText(cl, base+wire.PathMetrics)
	}
	if err != nil {
		row("metrics", "unavailable: %v", err)
		return
	}
	var missing []string
	count := func(name string, labels telemetry.Labels) float64 {
		v, ok := telemetry.Sum(second, name, labels)
		if !ok && !slices.Contains(missing, name) {
			missing = append(missing, name)
		}
		return v
	}
	const requests = "reputation_http_requests_total"
	fiveXX := telemetry.L("code", "5xx")
	t1, _ := telemetry.Sum(first, requests, nil)
	e1, _ := telemetry.Sum(first, requests, fiveXX)
	dt, de := count(requests, nil)-t1, count(requests, fiveXX)-e1
	row("req-rate", "%.1f/s (over %s)", dt/rateSampleGap.Seconds(), rateSampleGap)
	if dt > 0 {
		row("err-rate", "%.1f%% 5xx", 100*de/dt)
	} else {
		row("err-rate", "n/a (no requests in sample window)")
	}
	row("inflight", "%.0f", count("reputation_http_inflight", nil))
	row("limit", "%.0f", count("reputation_admission_limit", nil))
	if adaptive {
		fmt.Fprintln(w, "classes:")
		for class := admission.Critical; class < admission.NumClasses; class++ {
			outcome := func(o string) float64 {
				return count("reputation_admission_requests_total", telemetry.Labels{{"class", class.String()}, {"outcome", o}})
			}
			fmt.Fprintf(w, "  %-12s admitted %-10.0f shed %-10.0f throttled %.0f\n",
				class, outcome("admitted"), outcome("shed"), outcome("throttled"))
		}
	}

	row("reopens", "%.0f", count("reputation_storedb_reopens_total", nil))
	groups := count("reputation_storedb_wal_groups_total", nil)
	batches := count("reputation_storedb_wal_batches_total", nil)
	fsyncs := count("reputation_storedb_wal_fsyncs_total", nil)
	row("wal", "%.0f commits in %.0f group writes, %.0f fsyncs", batches, groups, fsyncs)
	if groups > 0 {
		row("depth", "%.1f commits per WAL write", batches/groups)
	}
	if batches > 0 {
		row("fsyncs", "%.3f per commit", fsyncs/batches)
	}
	row("scrub-runs", "%.0f", count("reputation_storedb_scrub_runs_total", nil))
	row("blocks", "%.0f verified", count("reputation_storedb_scrub_blocks_total", nil))
	row("corruptions", "%.0f detected since open", count("reputation_storedb_corruptions_total", nil))
	if last := count("reputation_storedb_last_scrub_unix", nil); last > 0 {
		row("last-scrub", "%s", time.Unix(int64(last), 0).UTC().Format(time.RFC3339))
	} else {
		row("last-scrub", "never (enable with reputationd -scrub-every)")
	}
	row("compactions", "%.0f", count("reputation_storedb_compactions_total", nil))
	row("compact-lag", "%.0f commits behind the WAL tail", count("reputation_storedb_compactor_lag", nil))
	if len(missing) > 0 {
		row("missing", "%s (not on /metrics)", strings.Join(missing, ", "))
	}
}

// cmdMetrics dumps a running server's /metrics page, optionally keeping
// only the lines (and family headers) containing filter.
func cmdMetrics(base, filter string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}
	text, err := fetchText(cl, base+wire.PathMetrics)
	if err != nil {
		log.Fatalf("reputectl: metrics: %v", err)
	}
	if filter == "" {
		fmt.Print(text)
		return
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.Contains(line, filter) {
			fmt.Println(line)
		}
	}
}

// cmdTrace dumps a running server's /trace page: the ring of recent
// slow or errored requests, newest first, with their request IDs.
func cmdTrace(base string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}
	text, err := fetchText(cl, base+wire.PathTrace)
	if err != nil {
		log.Fatalf("reputectl: trace: %v", err)
	}
	fmt.Print(text)
}

// cmdJournal prints the recovery journal: writes that were acknowledged
// by a deposed primary and displaced by the epoch that superseded it.
// Divergence repair quarantines them here instead of silently dropping
// (the user was told the write succeeded) or keeping them (the new
// primary's history says otherwise); each needs an operator decision to
// replay or discard.
func cmdJournal(path string) {
	entries, err := replication.ReadJournal(path)
	if err != nil {
		log.Fatalf("reputectl: %v", err)
	}
	if len(entries) == 0 {
		fmt.Println("recovery journal is empty: no writes displaced by failover")
		return
	}
	fmt.Printf("%d quarantined batch(es) in %s\n", len(entries), path)
	for i, e := range entries {
		fmt.Printf("#%d seq %d: acked under epoch %d, displaced by epoch %d, %d op(s)\n",
			i+1, e.Batch.Seq, e.AckedEpoch, e.SupersededBy, len(e.Batch.Ops))
		for _, op := range e.Batch.Ops {
			verb := "put"
			if op.Delete {
				verb = "del"
			}
			fmt.Printf("   %s %q (%d bytes)\n", verb, op.Key, len(op.Val))
		}
	}
}

// fetchText GETs url and returns the body as text.
func fetchText(cl *http.Client, url string) (string, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("http %s", resp.Status)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		return "", err
	}
	return b.String(), nil
}

// fetchXML GETs url and decodes the XML document into out.
func fetchXML(cl *http.Client, url string, out interface{}) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %s", resp.Status)
	}
	return wire.Decode(resp.Body, out)
}
