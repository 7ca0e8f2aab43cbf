package replication

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// Stats counts what a replica has done since it started.
type Stats struct {
	// BatchesApplied is the number of WAL batches applied.
	BatchesApplied uint64
	// Pulls is the number of /repl/wal requests issued.
	Pulls uint64
	// SnapshotBootstraps counts full snapshot restores (fresh start or
	// fell behind compaction).
	SnapshotBootstraps uint64
	// Resumes counts pulls that continued the stream after an error or
	// partition without needing a new snapshot.
	Resumes uint64
	// CRCFailures counts frames rejected by the checksum.
	CRCFailures uint64
	// Errors counts failed pull attempts (network or server errors).
	Errors uint64
	// Diverged counts times the replica found its history forked from
	// the primary's (a deposed primary acked writes the new epoch never
	// saw) and entered repair.
	Diverged uint64
	// Truncations counts repairs done by rewinding the local WAL tail to
	// the last common prefix (the cheap path, no snapshot needed).
	Truncations uint64
	// QuarantinedBatches counts displaced batches handed to the recovery
	// journal instead of being silently dropped.
	QuarantinedBatches uint64
	// StaleRejects counts pulls refused because the responding primary's
	// epoch was below one this replica has already followed.
	StaleRejects uint64
}

// ErrStalePrimary reports a pull answered by a primary whose epoch is
// lower than one the replica has already observed: a deposed primary
// still serving. The replica refuses the stream rather than adopt a
// fork.
var ErrStalePrimary = errors.New("replication: primary epoch below observed epoch")

// ErrDiverged reports that the local history and the primary's history
// fork: same sequence numbers, different batches. Sync repairs this
// automatically; the error surfaces only if repair itself fails.
var ErrDiverged = errors.New("replication: history diverged from primary")

// Replica tails a primary's WAL into a local store. It is pull-based:
// Sync (which Supervise runs each round) repeatedly asks the primary for
// batches after the replica's own sequence number, which makes
// crash/partition recovery trivial — the position to resume from *is*
// the local store's durable sequence number.
type Replica struct {
	// DB is the local store; it should be in replica mode so nothing
	// else writes to it.
	DB *storedb.DB
	// Primary is the primary server's base URL.
	Primary string
	// ID identifies this replica to the primary's progress tracking.
	ID string
	// Client issues the HTTP requests; nil means http.DefaultClient.
	// Simulations inject a client routed through a PartitionNet.
	Client *http.Client
	// MaxBatches caps batches requested per pull; 0 lets the primary
	// decide. Only tests set it, to size a pull exactly.
	MaxBatches int
	// Journal quarantines writes displaced by divergence repair; nil
	// lazily allocates a memory-only journal, so displaced batches are
	// never dropped even when no journal was wired up.
	Journal *RecoveryJournal
	// Logger receives structured events for the moments an operator
	// must be able to reconstruct afterwards: divergence repair,
	// quarantine, snapshot bootstraps, stale-primary rejections. A nil
	// logger is silent (every Logger method is nil-safe).
	Logger *telemetry.Logger

	primarySeq    atomic.Uint64 // last X-Primary-Seq seen
	primaryDigest atomic.Uint64 // digest paired with primarySeq
	knownEpoch    atomic.Uint64 // highest epoch seen from any source

	batchesApplied     atomic.Uint64
	pulls              atomic.Uint64
	snapshotBootstraps atomic.Uint64
	resumes            atomic.Uint64
	crcFailures        atomic.Uint64
	errored            atomic.Uint64
	diverged           atomic.Uint64
	truncations        atomic.Uint64
	quarantined        atomic.Uint64
	staleRejects       atomic.Uint64

	journalMu   sync.Mutex
	lastErrored bool // previous pull failed; next success is a resume
}

func (rep *Replica) client() *http.Client {
	if rep.Client != nil {
		return rep.Client
	}
	return http.DefaultClient
}

// Stats returns a snapshot of the replica's counters.
func (rep *Replica) Stats() Stats {
	return Stats{
		BatchesApplied:     rep.batchesApplied.Load(),
		Pulls:              rep.pulls.Load(),
		SnapshotBootstraps: rep.snapshotBootstraps.Load(),
		Resumes:            rep.resumes.Load(),
		CRCFailures:        rep.crcFailures.Load(),
		Errors:             rep.errored.Load(),
		Diverged:           rep.diverged.Load(),
		Truncations:        rep.truncations.Load(),
		QuarantinedBatches: rep.quarantined.Load(),
		StaleRejects:       rep.staleRejects.Load(),
	}
}

// RegisterMetrics exposes the replica's counters through reg, bridged
// as scrape-time closures so the pull loop pays nothing. Names are
// disjoint from the server-side reputation_replication_* gauges, so a
// replica daemon can register both into one shared registry.
func (rep *Replica) RegisterMetrics(reg *telemetry.Registry) {
	for _, c := range []struct {
		name, help string
		get        func() uint64
	}{
		{"reputation_replication_pulls_total", "WAL pull requests issued.", rep.pulls.Load},
		{"reputation_replication_batches_applied_total", "WAL batches applied locally.", rep.batchesApplied.Load},
		{"reputation_replication_snapshot_bootstraps_total", "Full snapshot restores.", rep.snapshotBootstraps.Load},
		{"reputation_replication_resumes_total", "Pull streams resumed after an error or partition.", rep.resumes.Load},
		{"reputation_replication_crc_failures_total", "Frames or snapshots rejected by checksum.", rep.crcFailures.Load},
		{"reputation_replication_pull_errors_total", "Failed pull attempts.", rep.errored.Load},
		{"reputation_replication_divergences_total", "Times local history forked from the primary's.", rep.diverged.Load},
		{"reputation_replication_truncations_total", "Divergences repaired by rewinding the local tail.", rep.truncations.Load},
		{"reputation_replication_quarantined_batches_total", "Displaced batches preserved in the recovery journal.", rep.quarantined.Load},
		{"reputation_replication_stale_rejects_total", "Pulls refused because the primary's epoch was stale.", rep.staleRejects.Load},
	} {
		reg.CounterFunc(c.name, c.help, nil, c.get)
	}
	reg.GaugeFunc("reputation_replication_pull_lag",
		"Batches behind the last primary position this replica observed.", nil,
		func() float64 { return float64(rep.Lag()) })
}

// journal returns the configured journal, lazily allocating a
// memory-only one so quarantined batches always land somewhere.
func (rep *Replica) journal() *RecoveryJournal {
	rep.journalMu.Lock()
	defer rep.journalMu.Unlock()
	if rep.Journal == nil {
		rep.Journal = &RecoveryJournal{}
	}
	return rep.Journal
}

// observeEpoch folds a peer-reported epoch into the replica's highest
// known epoch. The local store's own epoch counts too: it rises as
// promotion batches are applied.
func (rep *Replica) observeEpoch(e uint64) {
	for {
		cur := rep.knownEpoch.Load()
		if e <= cur || rep.knownEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// epochFloor is the highest epoch this replica will hold a primary to:
// the max of everything applied into the local store and everything
// seen in replication headers.
func (rep *Replica) epochFloor() uint64 {
	if e := rep.DB.Epoch(); e > rep.knownEpoch.Load() {
		rep.observeEpoch(e)
	}
	return rep.knownEpoch.Load()
}

// Lag returns how many batches the replica is behind the last primary
// sequence number it has seen. A partitioned replica's lag freezes at
// the last observation; it cannot know what it is missing.
func (rep *Replica) Lag() uint64 {
	p := rep.primarySeq.Load()
	s := rep.DB.Seq()
	if p > s {
		return p - s
	}
	return 0
}

// Sync pulls until the replica has applied everything the primary had
// at the time of the last pull. It bootstraps from a snapshot when the
// primary reports the replica's position compacted away.
func (rep *Replica) Sync(ctx context.Context) error {
	for {
		n, caughtUp, err := rep.pullOnce(ctx)
		if err != nil {
			rep.lastErrored = true
			rep.errored.Add(1)
			return err
		}
		if rep.lastErrored {
			rep.lastErrored = false
			rep.resumes.Add(1)
			rep.Logger.Info("replication stream resumed",
				"replica", rep.ID, "seq", rep.DB.Seq(), "lag", rep.Lag())
		}
		if caughtUp || (n == 0 && rep.Lag() == 0) {
			return nil
		}
	}
}

// pullOnce issues one /repl/wal request from the local sequence number
// and applies the returned frames. It returns the number of batches
// applied and whether the reply proves the replica has caught up.
// Divergence — the primary's history forking from the local one — is
// detected here (stale-epoch reply, a primary behind the local tail, a
// digest mismatch at the caught-up position, or a frame whose
// predecessor digest does not match the local chain) and repaired via
// resync before any foreign batch lands on a forked prefix.
func (rep *Replica) pullOnce(ctx context.Context) (applied int, caughtUp bool, err error) {
	rep.pulls.Add(1)
	from := rep.DB.Seq()
	u := fmt.Sprintf("%s%s?from=%d&id=%s", rep.Primary, wire.PathReplWAL, from, url.QueryEscape(rep.ID))
	if rep.MaxBatches > 0 {
		u += "&max=" + strconv.Itoa(rep.MaxBatches)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, false, err
	}
	req.Header.Set(wire.HeaderEpoch, strconv.FormatUint(rep.epochFloor(), 10))
	// Each pull is one logical operation: give it a fresh request ID so
	// the primary's trace and this replica's log can be joined on it.
	reqID := telemetry.NewRequestID()
	req.Header.Set(wire.HeaderRequestID, reqID)
	resp, err := rep.client().Do(req)
	if err != nil {
		return 0, false, fmt.Errorf("replication: pull: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	var primarySeq, primaryEpoch uint64
	if ps, perr := strconv.ParseUint(resp.Header.Get(HeaderPrimarySeq), 10, 64); perr == nil {
		primarySeq = ps
		rep.primarySeq.Store(ps)
		if pd, derr := strconv.ParseUint(resp.Header.Get(HeaderPrimaryDigest), 10, 64); derr == nil {
			rep.primaryDigest.Store(pd)
		}
	}
	if pe, perr := strconv.ParseUint(resp.Header.Get(HeaderPrimaryEpoch), 10, 64); perr == nil {
		primaryEpoch = pe
		// A deposed primary must not feed us a fork of history the real
		// epoch has moved past. Check before trusting anything else in
		// the reply.
		if pe < rep.epochFloor() {
			rep.staleRejects.Add(1)
			rep.Logger.Warn("rejected pull from stale primary",
				"replica", rep.ID, "request_id", reqID,
				"primary_epoch", pe, "observed_epoch", rep.epochFloor())
			return 0, false, fmt.Errorf("%w: primary at epoch %d, observed %d",
				ErrStalePrimary, pe, rep.epochFloor())
		}
		rep.observeEpoch(pe)
	}

	switch resp.StatusCode {
	case http.StatusOK:
		// Stream of frames; fall through.
	case http.StatusGone:
		// Position compacted away: bootstrap from a snapshot, then let
		// the caller pull again from the restored sequence number.
		if err := rep.bootstrap(ctx); err != nil {
			return 0, false, err
		}
		return 0, false, nil
	default:
		var werr wire.ErrorResponse
		if derr := wire.Decode(resp.Body, &werr); derr == nil {
			return 0, false, fmt.Errorf("replication: pull: %w", &werr)
		}
		return 0, false, fmt.Errorf("replication: pull: http %d", resp.StatusCode)
	}

	// The local tail extending past the primary's, or disagreeing with
	// its digest at the same position, means our tail holds writes the
	// primary's history never included: repair before pulling more.
	if resp.Header.Get(HeaderPrimarySeq) != "" {
		localSeq, localDigest := rep.DB.ChainPosition()
		if primarySeq < localSeq ||
			(primarySeq == localSeq && rep.primaryDigest.Load() != localDigest) {
			io.Copy(io.Discard, resp.Body)
			rep.Logger.Warn("history diverged from primary",
				"replica", rep.ID, "request_id", reqID,
				"local_seq", localSeq, "primary_seq", primarySeq,
				"primary_epoch", primaryEpoch)
			return 0, false, rep.resync(ctx, primaryEpoch, primarySeq)
		}
	}

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		epoch, prevDigest, batchPayload, ferr := readEnvelope(br)
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			// A torn or corrupt frame ends this pull; everything already
			// applied is good, and the next pull resumes after it.
			rep.crcFailures.Add(1)
			return applied, false, ferr
		}
		if epoch < rep.epochFloor() {
			rep.staleRejects.Add(1)
			return applied, false, fmt.Errorf("%w: batch from epoch %d, observed %d",
				ErrStalePrimary, epoch, rep.epochFloor())
		}
		rep.observeEpoch(epoch)
		b, derr := storedb.DecodeBatch(batchPayload)
		if derr != nil {
			rep.crcFailures.Add(1)
			return applied, false, fmt.Errorf("replication: decode batch: %w", derr)
		}
		// The frame says the primary's history before this batch hashes
		// to prevDigest; ours must hash the same or this batch would land
		// on a forked prefix. Checked before apply, so a quarantined
		// local tail never mixes with new-epoch writes.
		if local := rep.DB.ChainDigest(); local != prevDigest {
			io.Copy(io.Discard, resp.Body)
			rep.Logger.Warn("frame predecessor digest mismatch; history diverged",
				"replica", rep.ID, "request_id", reqID,
				"seq", b.Seq, "primary_epoch", primaryEpoch)
			return applied, false, rep.resync(ctx, primaryEpoch, primarySeq)
		}
		if aerr := rep.DB.ApplyBatch(b); aerr != nil {
			return applied, false, fmt.Errorf("replication: apply batch %d: %w", b.Seq, aerr)
		}
		applied++
		rep.batchesApplied.Add(1)
	}
	return applied, rep.DB.Seq() >= rep.primarySeq.Load(), nil
}

// maxDigestProbes bounds the walk back through /repl/digest while
// hunting for the fork point; a fork deeper than this is repaired by
// snapshot bootstrap instead of point queries.
const maxDigestProbes = 128

// resync repairs a diverged replica. It walks the primary's digest
// chain backwards from the smaller of the two positions until it finds
// the last sequence number where both histories agree, quarantines the
// local tail past that prefix in the recovery journal, truncates to the
// prefix, and lets the next pull resume from the repaired position.
// When no common prefix is reachable — compacted away on either side, an
// in-memory store that cannot rewind, or a fork deeper than
// maxDigestProbes — it quarantines whatever local tail it can read and
// bootstraps from a snapshot.
func (rep *Replica) resync(ctx context.Context, primaryEpoch, primarySeq uint64) error {
	rep.diverged.Add(1)
	ackedEpoch := rep.DB.Epoch()

	localSeq, _ := rep.DB.ChainPosition()
	probe := localSeq
	if primarySeq < probe {
		probe = primarySeq
	}
	floor := rep.DB.SnapSeq()
	if probe > floor+maxDigestProbes {
		floor = probe - maxDigestProbes
	}

	common := uint64(0)
	found := false
	for s := probe; ; s-- {
		local, lok := rep.DB.DigestAt(s)
		if !lok {
			break
		}
		remote, rok, err := rep.fetchDigest(ctx, s)
		if err != nil {
			return err
		}
		if !rok {
			break
		}
		if local == remote {
			common, found = s, true
			break
		}
		if s == 0 || s <= floor {
			break
		}
	}

	// Quarantine the local tail past the common prefix (best effort
	// without one: retention may not reach all of it, but everything
	// readable is preserved) before anything removes it, so a failed
	// journal write or a crash in between loses no acked write. A repeat
	// after a crash only journals some batches twice.
	if found {
		floor = common
	}
	var suspect []storedb.Batch
	serr := rep.DB.Since(floor, 0, func(b storedb.Batch) error {
		suspect = append(suspect, b)
		return nil
	})
	if found && serr != nil && !errors.Is(serr, storedb.ErrCompacted) {
		return fmt.Errorf("%w: read tail past %d: %v", ErrDiverged, common, serr)
	}
	if err := rep.quarantine(ackedEpoch, primaryEpoch, suspect); err != nil {
		return err
	}
	if found {
		_, err := rep.DB.TruncateTail(common)
		if err == nil {
			rep.truncations.Add(1)
			rep.Logger.Info("repaired divergence by truncating local tail",
				"replica", rep.ID, "common_seq", common, "removed_batches", len(suspect),
				"primary_epoch", primaryEpoch)
			return nil
		}
		if !errors.Is(err, storedb.ErrCompacted) {
			return fmt.Errorf("%w: truncate to %d: %v", ErrDiverged, common, err)
		}
		// In-memory store (or raced past the floor): bootstrap instead;
		// the tail past the common prefix is already quarantined.
	}
	return rep.bootstrap(ctx)
}

// quarantine hands displaced batches to the journal and counts them.
func (rep *Replica) quarantine(ackedEpoch, supersededBy uint64, batches []storedb.Batch) error {
	if len(batches) == 0 {
		return nil
	}
	if err := rep.journal().Quarantine(ackedEpoch, supersededBy, batches); err != nil {
		return fmt.Errorf("replication: quarantine %d batches: %w", len(batches), err)
	}
	rep.quarantined.Add(uint64(len(batches)))
	rep.Logger.Warn("quarantined displaced batches to recovery journal",
		"replica", rep.ID, "batches", len(batches),
		"acked_epoch", ackedEpoch, "superseded_by", supersededBy)
	return nil
}

// fetchDigest asks the primary for its history digest at seq.
func (rep *Replica) fetchDigest(ctx context.Context, seq uint64) (digest uint64, known bool, err error) {
	dr, err := probeDigest(ctx, rep.client(), rep.Primary, seq)
	if err != nil {
		return 0, false, err
	}
	rep.observeEpoch(dr.Epoch)
	return dr.Digest, dr.Known, nil
}

// bootstrap downloads a full snapshot and installs it, replacing the
// replica's entire state. The snapshot's trailer CRC is verified before
// anything is installed.
func (rep *Replica) bootstrap(ctx context.Context) error {
	resp, err := getPeer(ctx, rep.client(), fmt.Sprintf("%s%s?id=%s", rep.Primary, wire.PathReplSnapshot, url.QueryEscape(rep.ID)))
	if err != nil {
		return fmt.Errorf("replication: snapshot: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if ps, perr := strconv.ParseUint(resp.Header.Get(HeaderPrimarySeq), 10, 64); perr == nil {
		rep.primarySeq.Store(ps)
	}
	if pe, perr := strconv.ParseUint(resp.Header.Get(HeaderPrimaryEpoch), 10, 64); perr == nil {
		if pe < rep.epochFloor() {
			rep.staleRejects.Add(1)
			return fmt.Errorf("%w: snapshot from epoch %d, observed %d",
				ErrStalePrimary, pe, rep.epochFloor())
		}
		rep.observeEpoch(pe)
	}
	if _, err := rep.DB.RestoreSnapshotFrom(resp.Body); err != nil {
		if errors.Is(err, storedb.ErrCorrupt) {
			rep.crcFailures.Add(1)
		}
		return fmt.Errorf("replication: install snapshot: %w", err)
	}
	rep.snapshotBootstraps.Add(1)
	rep.Logger.Info("bootstrapped from primary snapshot",
		"replica", rep.ID, "seq", rep.DB.Seq(), "epoch", rep.DB.Epoch())
	return nil
}
