package replication

import (
	"context"
	"hash/fnv"
	"math/rand"
	"time"

	"softreputation/internal/storedb"
	"softreputation/internal/telemetry"
)

// Supervise is a node's one recovery loop, run until ctx is done. Each
// round takes the one action db's state calls for, in WriteRefusal's
// order: a corrupt store is repaired through fix (with no fix it waits,
// as Reopen cannot cure damaged bytes), a failed store is reopened, and
// a store in replica mode pulls through rep, so a replica never pulls
// into a failed store and a promoted one stops pulling.
//
// A round that succeeds or has nothing to do waits poll. Repeated
// failures of one action back off through nextPollDelay, jittered by
// the node's id so nodes that lost the same peer do not retry in
// lockstep; a change of action starts again at poll.
func Supervise(ctx context.Context, db *storedb.DB, rep *Replica, fix *Repairer, poll time.Duration, log *telemetry.Logger) {
	if poll <= 0 {
		poll = time.Second
	}
	id := ""
	if rep != nil {
		id = rep.ID
	} else if fix != nil {
		id = fix.ID
	}
	rng := rand.New(rand.NewSource(int64(fnvSeed(id))))
	last, failures := "", 0
	for {
		action, err := "", error(nil)
		switch {
		case db.Corrupt():
			if fix != nil {
				action, err = "repair", fix.Repair(ctx)
			}
		case db.Failed():
			if action, err = "reopen", db.Reopen(); err == nil {
				log.Info("storage reopened; writes restored")
			}
		case rep != nil && db.ReplicaMode():
			action, err = "pull", rep.Sync(ctx)
		}
		if err == nil || action != last {
			last, failures = action, 0
		}
		delay := poll
		if err != nil {
			failures++
			delay = nextPollDelay(poll, failures, rng)
			log.Warn("recovery action failed", "action", action, "error", err.Error(), "retry_in", delay.String())
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// maxPollBackoff caps the backed-off poll interval; past this, waiting
// longer only delays recovery without protecting anything.
const maxPollBackoff = 30 * time.Second

// nextPollDelay computes the wait before the next recovery round: the
// plain poll interval while healthy, exponential backoff (doubling per
// consecutive failure, capped at 32x and maxPollBackoff) with uniform
// jitter in [d/2, d) while failing. The jitter decorrelates replicas
// that all saw the same primary die at the same moment.
func nextPollDelay(poll time.Duration, failures int, rng *rand.Rand) time.Duration {
	if failures <= 0 || poll <= 0 {
		return poll
	}
	shift := failures
	if shift > 5 {
		shift = 5 // 32x
	}
	d := poll << shift
	if d > maxPollBackoff {
		d = maxPollBackoff
	}
	if d < poll {
		d = poll // overflow guard for absurd poll values
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// fnvSeed hashes the node ID into an RNG seed so each node jitters
// differently without any wall-clock dependency.
func fnvSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}
