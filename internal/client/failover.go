package client

import (
	"context"
	"sync"
	"time"

	"softreputation/internal/vclock"
	"softreputation/internal/wire"
)

// Failover routes API calls across a replicated server tier. One
// logical call becomes a sweep over candidate endpoints inside a single
// resilience-executor attempt, so switching servers costs no backoff:
//
//   - Reads try the last endpoint that answered first, then the rest in
//     configured order. A replica serving slightly stale state beats no
//     answer at all — the paper's fresh-lookup availability goal.
//   - Writes try the believed primary first. A replica answers a write
//     with the redirect document naming the primary; the sweep follows
//     it. When every endpoint refuses (the primary just died), the
//     sweep probes /healthz looking for a freshly promoted primary
//     before giving up.
//
// What each answer means for the sweep is disposition's reading
// (invoke.go): only actSweepOn moves it along, and only a write follows
// actRedirect; every other answer ends it at the endpoint that gave it.
type Failover struct {
	api       *API
	endpoints []string

	// ProbeTTL bounds how long one endpoint's /healthz answer is reused
	// before the endpoint is probed again. A promotion sweep hits every
	// endpoint; without the cache a burst of failing writes re-probes the
	// whole tier per attempt. 0 selects defaultProbeTTL; negative
	// disables caching.
	ProbeTTL time.Duration
	// Clock times the probe cache; nil selects the real clock.
	// Simulations inject their virtual clock.
	Clock vclock.Clock

	mu         sync.Mutex
	primary    string // believed write endpoint
	prefRead   string // last endpoint that served a read
	epoch      uint64 // highest promotion epoch observed on any response
	probeCache map[string]probeEntry
	stats      FailoverStats
}

// probeEntry caches one endpoint's last /healthz outcome. Failed probes
// cache too — a dead endpoint re-probed on every sweep is exactly the
// stall the TTL exists to avoid.
type probeEntry struct {
	h   wire.HealthzResponse
	err bool
	at  time.Time
}

// defaultProbeTTL is how long a health probe result lives without an
// explicit ProbeTTL. Short: a fencing decision should lag a promotion
// by at most one probe interval.
const defaultProbeTTL = time.Second

// FailoverStats counts the selector's decisions.
type FailoverStats struct {
	// ReadFailovers is how many reads were answered by an endpoint other
	// than the first candidate tried.
	ReadFailovers uint64
	// RedirectsFollowed counts redirect documents obeyed on writes.
	RedirectsFollowed uint64
	// HealthProbes counts /healthz sweeps hunting for a primary.
	HealthProbes uint64
	// ProbeCacheHits counts endpoint probes answered from the TTL cache
	// instead of the network.
	ProbeCacheHits uint64
	// PrimarySwitches counts changes of the believed primary.
	PrimarySwitches uint64
}

func newFailover(api *API, endpoints []string) *Failover {
	eps := append([]string(nil), endpoints...)
	return &Failover{api: api, endpoints: eps, primary: eps[0], prefRead: eps[0]}
}

// Primary returns the currently believed primary endpoint.
func (f *Failover) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// Stats returns a snapshot of the selector's counters.
func (f *Failover) Stats() FailoverStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Epoch returns the highest promotion epoch this client has observed
// on any response. Requests carry it back out (wire.HeaderEpoch), so a
// client that has spoken to the new primary fences the old one on
// first contact.
func (f *Failover) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// ObserveEpoch folds an epoch seen on a response header into the
// client's view.
func (f *Failover) ObserveEpoch(e uint64) {
	f.mu.Lock()
	if e > f.epoch {
		f.epoch = e
	}
	f.mu.Unlock()
}

func (f *Failover) now() time.Time {
	if f.Clock != nil {
		return f.Clock.Now()
	}
	return time.Now()
}

func (f *Failover) setPrimary(base string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if base != "" && base != f.primary {
		f.primary = base
		f.stats.PrimarySwitches++
	}
}

// candidates returns the sweep order: first, then every other endpoint
// in configured order.
func (f *Failover) candidates(first string) []string {
	out := append(make([]string, 0, len(f.endpoints)), first)
	for _, e := range f.endpoints {
		if e != first {
			out = append(out, e)
		}
	}
	return out
}

// sweep runs try against candidate endpoints until one serves the
// request. Called inside a resilience-executor attempt: a sweep that
// fails everywhere surfaces its last endpoint-level error, which the
// executor's retry policy then classifies as usual. A nil selector has
// the one candidate, single.
func (f *Failover) sweep(ctx context.Context, single string, write bool, try func(base string) (verdict, error)) error {
	if f == nil {
		_, err := try(single)
		return err
	}
	if write {
		return f.sweepWrite(ctx, try)
	}
	f.mu.Lock()
	first := f.prefRead
	f.mu.Unlock()

	var lastErr error
	for i, base := range f.candidates(first) {
		v, err := try(base)
		if v.act != actSweepOn {
			f.mu.Lock()
			f.prefRead = base
			if i > 0 {
				f.stats.ReadFailovers++
			}
			f.mu.Unlock()
			return err
		}
		lastErr = err
	}
	return lastErr
}

func (f *Failover) sweepWrite(ctx context.Context, try func(base string) (verdict, error)) error {
	tried := make(map[string]bool)
	var lastErr error
	for _, base := range f.candidates(f.Primary()) {
		// Each candidate, then whatever untried primary its redirect names.
		for base != "" && !tried[base] {
			tried[base] = true
			v, err := try(base)
			switch v.act {
			case actSweepOn:
				base, lastErr = "", err
			case actRedirect:
				f.mu.Lock()
				f.stats.RedirectsFollowed++
				f.mu.Unlock()
				base, lastErr = v.primary, err
				if base != "" && !tried[base] {
					f.setPrimary(base)
				}
			default:
				// Authoritative answer: this endpoint IS serving writes.
				f.setPrimary(base)
				return err
			}
		}
	}

	// Every endpoint refused. If the believed primary is gone a replica
	// may have been promoted since our last look: probe /healthz for a
	// server calling itself primary and give it one shot.
	if promoted := f.probeForPrimary(ctx); promoted != "" {
		v, err := try(promoted)
		if v.act != actSweepOn {
			f.setPrimary(promoted)
			return err
		}
		lastErr = err
	}
	return lastErr
}

// cachedHealthz probes one endpoint's /healthz, reusing a result
// younger than ProbeTTL. ok is false when the endpoint did not answer.
func (f *Failover) cachedHealthz(ctx context.Context, base string) (wire.HealthzResponse, bool) {
	ttl := f.ProbeTTL
	if ttl == 0 {
		ttl = defaultProbeTTL
	}
	if ttl > 0 {
		now := f.now()
		f.mu.Lock()
		if e, hit := f.probeCache[base]; hit && now.Sub(e.at) < ttl {
			f.stats.ProbeCacheHits++
			f.mu.Unlock()
			return e.h, !e.err
		}
		f.mu.Unlock()
	}
	h, err := f.api.Healthz(ctx, base)
	if ttl > 0 {
		f.mu.Lock()
		if f.probeCache == nil {
			f.probeCache = make(map[string]probeEntry)
		}
		f.probeCache[base] = probeEntry{h: h, err: err != nil, at: f.now()}
		f.mu.Unlock()
	}
	return h, err == nil
}

// probeForPrimary sweeps /healthz across the endpoints and returns the
// healthy primary with the highest promotion epoch, or "". Epoch is the
// tiebreak that makes split-brain sweeps safe: during a partition two
// servers may both call themselves primary, and only the one holding
// the latest epoch may receive writes — the other is deposed and will
// fence as soon as anyone tells it.
func (f *Failover) probeForPrimary(ctx context.Context) string {
	f.mu.Lock()
	f.stats.HealthProbes++
	f.mu.Unlock()
	best := ""
	var bestEpoch uint64
	for _, base := range f.endpoints {
		h, ok := f.cachedHealthz(ctx, base)
		if !ok {
			continue
		}
		f.ObserveEpoch(h.Epoch)
		if h.Role != wire.RolePrimary || h.Draining || h.Fenced {
			continue
		}
		// A primary whose storage is in a sticky state, failed or
		// corrupt, sheds every write with 503 until it is reopened or
		// repaired — keep probing for a healthy one instead of re-aiming
		// the write path at it.
		if h.Storage != nil && h.Storage.State != wire.StorageOK {
			continue
		}
		if best == "" || h.Epoch > bestEpoch {
			best, bestEpoch = base, h.Epoch
		}
	}
	return best
}

// Probe refreshes the believed primary by sweeping /healthz. Returns
// the discovered primary endpoint, or "" when none is reachable.
func (f *Failover) Probe(ctx context.Context) string {
	base := f.probeForPrimary(ctx)
	f.setPrimary(base)
	return base
}
