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
//	reputectl scrubstatus http://localhost:8080
//	reputectl metrics http://localhost:8080 repcache
//	reputectl trace http://localhost:8080
//
// health, loadstatus, storagestatus, scrubstatus, metrics, and trace
// are the online commands: they query a running server's observability
// endpoints (/healthz, /replstatus, /metrics, /trace) instead of
// opening the store.
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
	"sort"
	"strconv"
	"strings"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/replication"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

func main() {
	dataDir := flag.String("data", "./reputationd-data", "data directory")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("reputectl: need a command: stats | aggregate | bootstrap <csv> | software <id> | user <name> | top [n] | check | pending | approve <id> | journal | health <url> | loadstatus <url> | storagestatus <url> | scrubstatus <url> | metrics <url> [filter] | trace <url>")
	}

	// health, loadstatus, metrics, and trace talk to a running server
	// over HTTP, so they must not open the (single-process) store.
	if args[0] == "health" {
		if len(args) < 2 {
			log.Fatal("reputectl: health needs a server base URL")
		}
		cmdHealth(args[1])
		return
	}
	if args[0] == "metrics" {
		if len(args) < 2 {
			log.Fatal("reputectl: metrics needs a server base URL")
		}
		filter := ""
		if len(args) >= 3 {
			filter = args[2]
		}
		cmdMetrics(args[1], filter)
		return
	}
	if args[0] == "trace" {
		if len(args) < 2 {
			log.Fatal("reputectl: trace needs a server base URL")
		}
		cmdTrace(args[1])
		return
	}
	if args[0] == "loadstatus" {
		if len(args) < 2 {
			log.Fatal("reputectl: loadstatus needs a server base URL")
		}
		cmdLoadStatus(args[1])
		return
	}
	if args[0] == "storagestatus" {
		if len(args) < 2 {
			log.Fatal("reputectl: storagestatus needs a server base URL")
		}
		cmdStorageStatus(args[1])
		return
	}
	if args[0] == "scrubstatus" {
		if len(args) < 2 {
			log.Fatal("reputectl: scrubstatus needs a server base URL")
		}
		cmdScrubStatus(args[1])
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

// cmdHealth queries a running server's /healthz and /replstatus and
// prints the tier's state: role, sequence position, lag, and — on a
// primary — every known replica's progress.
func cmdHealth(base string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}

	var h wire.HealthzResponse
	if err := fetchXML(cl, base+wire.PathHealthz, &h); err != nil {
		log.Fatalf("reputectl: healthz: %v", err)
	}
	fmt.Printf("role:      %s\n", h.Role)
	if h.Protocols != "" {
		fmt.Printf("protocols: %s\n", h.Protocols)
	} else {
		fmt.Println("protocols: xml (pre-binary server)")
	}
	if h.Primary != "" {
		fmt.Printf("primary:   %s\n", h.Primary)
	}
	fmt.Printf("epoch:     %d\n", h.Epoch)
	if h.Fenced {
		fmt.Println("fenced:    true (a higher epoch exists; writes refused)")
	}
	fmt.Printf("seq:       %d\n", h.Seq)
	fmt.Printf("lag:       %d\n", h.Lag)
	fmt.Printf("draining:  %v\n", h.Draining)
	fmt.Printf("inflight:  %d\n", h.Inflight)

	var rs wire.ReplStatusResponse
	if err := fetchXML(cl, base+wire.PathReplStatus, &rs); err != nil {
		log.Fatalf("reputectl: replstatus: %v", err)
	}
	fmt.Printf("snap-seq:  %d\n", rs.SnapSeq)
	fmt.Printf("digest:    %016x\n", rs.Digest)
	if len(rs.Replicas) == 0 {
		fmt.Println("replicas:  none tracked")
	} else {
		fmt.Println("replicas:")
		for _, r := range rs.Replicas {
			fmt.Printf("  %-20s ack-seq %-8d lag %-6d snapshots %-3d last poll %s\n",
				r.ID, r.AckSeq, r.Lag, r.Snapshots, r.LastPoll)
		}
	}

	printRequestRates(cl, base)
}

// rateSampleGap separates the two /metrics samples the request- and
// error-rate figures are computed from.
const rateSampleGap = time.Second

// printRequestRates samples /metrics twice and prints the request rate
// and error rate over the gap. Servers without /metrics (older builds,
// or telemetry disabled) are skipped silently — health must keep
// working against them.
func printRequestRates(cl *http.Client, base string) {
	first, err := fetchText(cl, base+wire.PathMetrics)
	if err != nil {
		return
	}
	time.Sleep(rateSampleGap)
	second, err := fetchText(cl, base+wire.PathMetrics)
	if err != nil {
		return
	}
	t1, e1 := sumRequestTotals(first)
	t2, e2 := sumRequestTotals(second)
	secs := rateSampleGap.Seconds()
	dt, de := t2-t1, e2-e1
	fmt.Printf("req-rate:  %.1f/s (over %s)\n", dt/secs, rateSampleGap)
	if dt > 0 {
		fmt.Printf("err-rate:  %.1f%% 5xx\n", 100*de/dt)
	} else {
		fmt.Println("err-rate:  n/a (no requests in sample window)")
	}
}

// sumRequestTotals adds up reputation_http_requests_total across every
// label combination, returning the grand total and the 5xx share.
func sumRequestTotals(text string) (total, errors5xx float64) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "reputation_http_requests_total") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		total += v
		if strings.Contains(line, `code="5xx"`) {
			errors5xx += v
		}
	}
	return total, errors5xx
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

// cmdLoadStatus queries a running server's /healthz and prints its load
// picture: inflight requests, the adaptive limiter's concurrency
// estimate, the brownout level, and per-class admit/shed/throttle
// counters. /healthz bypasses the admission gate, so this works
// precisely when the server is shedding.
func cmdLoadStatus(base string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}

	var h wire.HealthzResponse
	if err := fetchXML(cl, base+wire.PathHealthz, &h); err != nil {
		log.Fatalf("reputectl: healthz: %v", err)
	}
	fmt.Printf("inflight:  %d\n", h.Inflight)
	fmt.Printf("draining:  %v\n", h.Draining)
	if h.Brownout == "" {
		fmt.Println("admission: static cap (adaptive admission disabled)")
		return
	}
	fmt.Printf("limit:     %d\n", h.AdmitLimit)
	fmt.Printf("brownout:  %s\n", h.Brownout)
	fmt.Println("classes:")
	for _, c := range h.Classes {
		fmt.Printf("  %-12s admitted %-10d shed %-10d throttled %d\n",
			c.Class, c.Admitted, c.Shed, c.Throttled)
	}
}

// cmdStorageStatus queries a running server's /healthz and prints the
// storage picture: the fail-safe state (ok, or sticky failed with its
// cause), how many supervised reopens the store has survived, and the
// group-commit telemetry — mean commits per WAL write and fsyncs per
// commit, the amortization the write pipeline exists for.
func cmdStorageStatus(base string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}

	var h wire.HealthzResponse
	if err := fetchXML(cl, base+wire.PathHealthz, &h); err != nil {
		log.Fatalf("reputectl: healthz: %v", err)
	}
	st := h.Storage
	if st == nil {
		fmt.Println("storage:   not reported (older server)")
		return
	}
	fmt.Printf("storage:   %s\n", st.State)
	if st.State == wire.StorageFailed {
		fmt.Printf("failure:   %s\n", st.LastFailure)
		fmt.Println("writes:    shedding 503 unavailable; reads served from last durable state")
	}
	if st.State == wire.StorageCorrupt {
		fmt.Printf("failure:   %s\n", st.LastFailure)
		fmt.Printf("unit:      %s\n", st.CorruptUnit)
		fmt.Println("writes:    shedding 503 unavailable; awaiting repair from a healthy peer")
	}
	fmt.Printf("reopens:   %d\n", st.Reopens)
	fmt.Printf("wal:       %d commits in %d group writes, %d fsyncs\n",
		st.WALBatches, st.WALGroups, st.WALFsyncs)
	if st.WALGroups > 0 {
		fmt.Printf("depth:     %.1f commits per WAL write\n",
			float64(st.WALBatches)/float64(st.WALGroups))
	}
	if st.WALBatches > 0 {
		fmt.Printf("fsyncs:    %.3f per commit\n",
			float64(st.WALFsyncs)/float64(st.WALBatches))
	}
}

// cmdScrubStatus queries a running server's /healthz and prints the
// self-healing picture: the sticky corruption state (with the damaged
// unit when scrub found one), the online scrubber's progress, and the
// background compactor's position behind the commit stream. /healthz
// bypasses the admission gate, so this works precisely when a corrupt
// store is shedding writes.
func cmdScrubStatus(base string) {
	base = strings.TrimRight(base, "/")
	cl := &http.Client{Timeout: 5 * time.Second}

	var h wire.HealthzResponse
	if err := fetchXML(cl, base+wire.PathHealthz, &h); err != nil {
		log.Fatalf("reputectl: healthz: %v", err)
	}
	st := h.Storage
	if st == nil {
		fmt.Println("storage:     not reported (older server)")
		return
	}
	fmt.Printf("storage:     %s\n", st.State)
	if st.State == wire.StorageCorrupt {
		fmt.Printf("cause:       %s\n", st.LastFailure)
		fmt.Printf("unit:        %s\n", st.CorruptUnit)
		fmt.Println("writes:      shedding 503 unavailable; awaiting repair from a healthy peer")
	}
	fmt.Printf("scrub-runs:  %d\n", st.ScrubRuns)
	fmt.Printf("blocks:      %d verified\n", st.ScrubBlocks)
	fmt.Printf("corruptions: %d detected since open\n", st.Corruptions)
	if st.LastScrubUnix > 0 {
		fmt.Printf("last-scrub:  %s\n", time.Unix(st.LastScrubUnix, 0).UTC().Format(time.RFC3339))
	} else {
		fmt.Println("last-scrub:  never (enable with reputationd -scrub-every)")
	}
	fmt.Printf("compactions: %d\n", st.Compactions)
	fmt.Printf("compact-lag: %d commits behind the WAL tail\n", st.CompactorLag)
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
