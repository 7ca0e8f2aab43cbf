package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
	"softreputation/internal/wire"
)

// ErrRepairForked reports that the repair source's history disagrees
// with the corrupt store's acknowledged chain position: restoring from
// it would silently rewrite acknowledged writes, so the repair refuses.
var ErrRepairForked = errors.New("replication: repair source history forks from local acked chain")

// Repairer restores a corrupt local store from a healthy peer that
// serves the /repl/* endpoints. It is the replica repair machinery run
// in reverse: replicas normally repair themselves from a primary, and
// here a corrupt primary repairs itself from a replica.
//
// The sequence preserves every acknowledged write:
//
//  1. Capture the local chain position (seq, digest). The in-memory
//     tree and digest chain predate the at-rest corruption, so this is
//     the exact history the store acknowledged.
//  2. Wait until the source proves — via /repl/digest — that it holds
//     that very position. A lagging replica keeps catching up in the
//     meantime, because a corrupt store still serves reads and the
//     replication endpoints from memory. A source whose digest at the
//     target sequence differs holds a fork and is refused.
//  3. QuarantineCorrupt: the damaged files move aside, preserved as
//     evidence next to the recovery journal's quarantined batches —
//     never deleted.
//  4. Bootstrap from the source's snapshot stream, every block checksum
//     verified before anything is installed.
//  5. Verify convergence: the restored chain position must extend the
//     captured one, byte-identically where they overlap.
type Repairer struct {
	// DB is the corrupt store to repair.
	DB *storedb.DB
	// Source is the healthy peer's base URL.
	Source string
	// ID identifies this node to the source's progress tracking.
	ID string
	// Client issues the HTTP requests; nil means http.DefaultClient.
	Client *http.Client
	// Poll is how often a lagging source is re-probed while waiting for
	// it to reach the local acked position; 0 means 250ms.
	Poll time.Duration
	// Logger receives the repair lifecycle events; nil is silent.
	Logger *telemetry.Logger

	repairs     atomic.Uint64
	failures    atomic.Uint64
	quarantines atomic.Uint64
	lastRepair  atomic.Int64
}

func (r *Repairer) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

func (r *Repairer) poll() time.Duration {
	if r.Poll > 0 {
		return r.Poll
	}
	return 250 * time.Millisecond
}

// RegisterMetrics exposes the repairer's counters through reg.
func (r *Repairer) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("reputation_repair_runs_total",
		"Completed corruption repairs from a healthy peer.", nil, r.repairs.Load)
	reg.CounterFunc("reputation_repair_failures_total",
		"Repair attempts that failed and will be retried.", nil, r.failures.Load)
	reg.CounterFunc("reputation_repair_quarantines_total",
		"Corrupt file sets moved into quarantine.", nil, r.quarantines.Load)
	reg.GaugeFunc("reputation_repair_last_unix",
		"Unix time of the last successful repair; 0 when never.", nil,
		func() float64 { return float64(r.lastRepair.Load()) })
}

// Repair runs one full repair cycle. It is a no-op on a store that is
// not corrupt. It blocks — bounded by ctx — while the source catches up
// to the local acked position, so a successful return means no
// acknowledged write was lost. A source holding a forked history fails
// with ErrRepairForked rather than converge to the fork.
func (r *Repairer) Repair(ctx context.Context) error {
	if !r.DB.Corrupt() {
		return nil
	}
	target, tdig := r.DB.ChainPosition()
	h := r.DB.Health()
	r.Logger.Warn("storage corrupt; repairing from peer",
		"source", r.Source, "unit", h.CorruptUnit, "cause", h.CorruptCause,
		"acked_seq", target)

	if err := r.waitSourceHolds(ctx, target, tdig); err != nil {
		r.failures.Add(1)
		return err
	}

	qdir, err := r.DB.QuarantineCorrupt()
	if err != nil {
		r.failures.Add(1)
		return fmt.Errorf("replication: repair quarantine: %w", err)
	}
	r.quarantines.Add(1)
	r.Logger.Warn("quarantined corrupt files", "dir", qdir, "unit", h.CorruptUnit)

	restored, err := r.restoreFromSource(ctx)
	if err != nil {
		r.failures.Add(1)
		return err
	}
	if restored < target {
		// The wait-loop proved the source held target before the
		// bootstrap, and snapshots only move forward.
		r.failures.Add(1)
		return fmt.Errorf("replication: repair restored seq %d below acked %d", restored, target)
	}
	if newSeq, newDig := r.DB.ChainPosition(); newSeq == target && newDig != tdig {
		r.failures.Add(1)
		return fmt.Errorf("%w: digest %016x at seq %d after restore, acked %016x",
			ErrRepairForked, newDig, target, tdig)
	}

	r.repairs.Add(1)
	r.lastRepair.Store(time.Now().Unix())
	r.Logger.Info("storage repaired from peer",
		"source", r.Source, "restored_seq", restored, "acked_seq", target, "quarantine", qdir)
	return nil
}

// waitSourceHolds polls the source's digest endpoint until it proves it
// holds the exact (seq, digest) chain position, i.e. every write this
// store acknowledged. Known-but-different is a fork and fails fast;
// unknown means the source is still catching up (or has compacted the
// position away after already passing it — then its digest at its own
// head is the proof, but a snapshot restore covers it either way), so
// it is retried until ctx expires.
func (r *Repairer) waitSourceHolds(ctx context.Context, seq, digest uint64) error {
	for {
		dr, err := probeDigest(ctx, r.client(), r.Source, seq)
		if err == nil && dr.Known {
			if dr.Digest != digest {
				return fmt.Errorf("%w: source digest %016x at seq %d, acked %016x",
					ErrRepairForked, dr.Digest, seq, digest)
			}
			return nil
		}
		if err != nil {
			r.Logger.Warn("repair source probe failed; retrying", "source", r.Source, "error", err.Error())
		} else {
			r.Logger.Info("repair source lagging; waiting",
				"source", r.Source, "need_seq", seq, "source_seq", dr.Seq)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replication: repair wait for source at seq %d: %w", seq, ctx.Err())
		case <-time.After(r.poll()):
		}
	}
}

// restoreFromSource downloads the source's snapshot stream and installs
// it, returning the restored sequence number. Every checksum in the
// stream is verified before anything replaces local state.
func (r *Repairer) restoreFromSource(ctx context.Context) (uint64, error) {
	resp, err := getPeer(ctx, r.client(), fmt.Sprintf("%s%s?id=%s", r.Source, wire.PathReplSnapshot, url.QueryEscape(r.ID)))
	if err != nil {
		return 0, fmt.Errorf("replication: repair snapshot: %w", err)
	}
	defer resp.Body.Close()
	seq, err := r.DB.RestoreSnapshotFrom(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("replication: repair install snapshot: %w", err)
	}
	return seq, nil
}

// probeDigest asks base's /repl/digest for the history digest at seq.
func probeDigest(ctx context.Context, c *http.Client, base string, seq uint64) (wire.ReplDigestResponse, error) {
	resp, err := getPeer(ctx, c, fmt.Sprintf("%s%s?seq=%d", base, wire.PathReplDigest, seq))
	if err != nil {
		return wire.ReplDigestResponse{}, fmt.Errorf("replication: digest probe: %w", err)
	}
	defer resp.Body.Close()
	var dr wire.ReplDigestResponse
	if derr := wire.Decode(resp.Body, &dr); derr != nil {
		return wire.ReplDigestResponse{}, derr
	}
	return dr, nil
}

// getPeer issues one GET to a peer's replication endpoint under a fresh
// request ID, so the peer's trace and this node's log join on it. A
// non-200 answer is drained, closed and returned as an error; the
// caller closes the body of a 200.
func getPeer(ctx context.Context, c *http.Client, u string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(wire.HeaderRequestID, telemetry.NewRequestID())
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	return resp, nil
}
