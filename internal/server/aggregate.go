package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"softreputation/internal/core"
	"softreputation/internal/repo"
)

// The §3.2 aggregation job. Two entry points share one engine:
//
//   - RunAggregation rescans every executable — the on-demand and
//     cold-start path, and the reference the incremental engine is
//     tested against.
//   - RunIncrementalAggregation recomputes only the executables flagged
//     dirty since the last publish (new votes, new software, imported
//     priors) plus every executable rated by a user whose trust factor
//     changed — the steady-state path, whose cost follows the write
//     rate instead of the database size.
//
// Both fan the per-executable recompute across a GOMAXPROCS worker
// pool; results are merged by index, so the published bytes do not
// depend on scheduling. Both publish with the same skip-unchanged rule
// — a score record is only rewritten when its (score, votes,
// behaviours) actually moved — which is what makes the two paths
// byte-identical: an executable the incremental run skips is exactly
// one whose full-rescan recompute would have produced the bytes already
// published.

// RunAggregation recomputes every published software score with the
// current trust factors, then derives vendor scores, and persists the
// schedule. It is the §3.2 fixed-point job, runnable on demand for
// admin tooling and experiments.
func (s *Server) RunAggregation() error { return s.runAggregation(true) }

// RunIncrementalAggregation is RunAggregation restricted to the
// executables whose inputs changed since the last publish. On the same
// workload it publishes byte-identical scores.
func (s *Server) RunIncrementalAggregation() error { return s.runAggregation(false) }

func (s *Server) runAggregation(full bool) error {
	now := s.clock.Now()

	// The dirty markers are read before anything else: every marker
	// carries the commit stamp it was written at, and the publish below
	// only clears a marker whose stamp is unchanged — a vote racing
	// this run rewrites its marker and survives for the next run.
	dirtySw, err := s.store.DirtySoftware()
	if err != nil {
		return fmt.Errorf("server: aggregation dirty scan: %w", err)
	}
	dirtyUsers, err := s.store.DirtyUsers()
	if err != nil {
		return fmt.Errorf("server: aggregation dirty scan: %w", err)
	}

	// The target set: everything (full) or the dirty closure.
	var targets []repo.Software
	if full {
		err = s.store.ForEachSoftware(func(sw repo.Software) bool {
			targets = append(targets, sw)
			return true
		})
		if err != nil {
			return fmt.Errorf("server: aggregation software scan: %w", err)
		}
	} else {
		set := make(map[core.SoftwareID]bool, len(dirtySw))
		for _, m := range dirtySw {
			set[m.ID] = true
		}
		for _, m := range dirtyUsers {
			ids, err := s.store.SoftwareRatedBy(m.Username)
			if err != nil {
				return fmt.Errorf("server: aggregation rated-by scan: %w", err)
			}
			for _, id := range ids {
				set[id] = true
			}
		}
		ids := make([]core.SoftwareID, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		// Identity order, matching ForEachSoftware: the published bytes
		// must not depend on map iteration.
		sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
		for _, id := range ids {
			sw, found, err := s.store.GetSoftware(id)
			if err != nil {
				return fmt.Errorf("server: aggregation software fetch: %w", err)
			}
			if found {
				targets = append(targets, sw)
			}
		}
	}

	// Phase 1, parallel: fetch each target's votes and prior.
	type swInput struct {
		ratings  []core.Rating
		prior    repo.BootstrapPrior
		hasPrior bool
	}
	inputs := make([]swInput, len(targets))
	err = parallelForEach(len(targets), func(i int) error {
		ratings, err := s.store.RatingsForSoftware(targets[i].Meta.ID)
		if err != nil {
			return err
		}
		inputs[i].ratings = ratings
		prior, ok, err := s.store.GetBootstrapPrior(targets[i].Meta.ID)
		if err != nil {
			return err
		}
		inputs[i].prior, inputs[i].hasPrior = prior, ok
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: aggregation rating scan: %w", err)
	}

	// Trust factors are read once: each user's current factor weights
	// all of their votes. The full path scans every account; the
	// incremental path batch-fetches just the raters it saw.
	trust := make(map[string]float64)
	if full {
		err = s.store.ForEachUser(func(u repo.User) bool {
			trust[u.Username] = u.Trust.Value
			return true
		})
		if err != nil {
			return fmt.Errorf("server: aggregation user scan: %w", err)
		}
	} else {
		var raters []string
		seen := make(map[string]bool)
		for i := range inputs {
			for _, r := range inputs[i].ratings {
				if !seen[r.UserID] {
					seen[r.UserID] = true
					raters = append(raters, r.UserID)
				}
			}
		}
		trust, err = s.store.TrustForUsers(raters)
		if err != nil {
			return fmt.Errorf("server: aggregation trust fetch: %w", err)
		}
	}

	s.mu.Lock()
	basePolicy := s.aggPolicy
	s.mu.Unlock()

	// Phase 2, parallel: aggregate each target and compare with its
	// published record. Per-target work is independent; the merge below
	// walks the slices in index (= identity) order.
	computed := make([]core.SoftwareScore, len(targets))
	changed := make([]bool, len(targets))
	err = parallelForEach(len(targets), func(i int) error {
		ratings := inputs[i].ratings
		votes := make([]core.WeightedVote, len(ratings))
		behaviors := make([]core.Behavior, len(ratings))
		for j, r := range ratings {
			votes[j] = core.WeightedVote{Score: r.Score, Trust: trust[r.UserID]}
			behaviors[j] = r.Behaviors
		}
		// A bootstrapped entry contributes its imported mass as prior
		// votes (§2.1): early live votes are "one out of many, rather
		// than the one and only".
		pol := basePolicy
		var priorVotes int
		var priorBehaviors core.Behavior
		if inputs[i].hasPrior {
			pol.PriorVotes = float64(inputs[i].prior.Votes)
			pol.PriorScore = inputs[i].prior.Score
			priorVotes = inputs[i].prior.Votes
			priorBehaviors = inputs[i].prior.Behaviors
		}
		score := core.SoftwareScore{
			Software:   targets[i].Meta.ID,
			Score:      pol.Aggregate(votes),
			Votes:      len(votes) + priorVotes,
			Behaviors:  pol.BehaviorConsensus(votes, behaviors) | priorBehaviors,
			ComputedAt: now,
		}
		if len(votes) == 0 && priorVotes == 0 {
			score.Score = 0
		}
		computed[i] = score
		stored, ok, err := s.store.GetScore(targets[i].Meta.ID)
		if err != nil {
			return err
		}
		changed[i] = !ok || stored.Score != score.Score ||
			stored.Votes != score.Votes || stored.Behaviors != score.Behaviors
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: aggregation compute: %w", err)
	}

	byID := make(map[core.SoftwareID]core.SoftwareScore, len(targets))
	var changedScores []core.SoftwareScore
	vendorSet := make(map[string]bool)
	for i := range targets {
		byID[targets[i].Meta.ID] = computed[i]
		if changed[i] {
			changedScores = append(changedScores, computed[i])
			if targets[i].Meta.VendorKnown() {
				vendorSet[targets[i].Meta.Vendor] = true
			}
		}
	}

	// A vendor score is a pure function of its software scores, so only
	// vendors of changed software can move. Siblings the run did not
	// recompute are read back from the store; a sibling with no record
	// at all could only aggregate to zero votes, which AggregateVendor
	// ignores anyway.
	vendorNames := make([]string, 0, len(vendorSet))
	for v := range vendorSet {
		vendorNames = append(vendorNames, v)
	}
	sort.Strings(vendorNames)
	var changedVendors []core.VendorScore
	for _, v := range vendorNames {
		ids, err := s.store.SoftwareByVendor(v)
		if err != nil {
			return fmt.Errorf("server: aggregation vendor scan: %w", err)
		}
		list := make([]core.SoftwareScore, 0, len(ids))
		for _, id := range ids {
			if sc, ok := byID[id]; ok {
				list = append(list, sc)
			} else if sc, ok, err := s.store.GetScore(id); err != nil {
				return fmt.Errorf("server: aggregation sibling fetch: %w", err)
			} else if ok {
				list = append(list, sc)
			}
		}
		vs := core.AggregateVendor(v, list)
		stored, ok, err := s.store.GetVendorScore(v)
		if err != nil {
			return fmt.Errorf("server: aggregation vendor fetch: %w", err)
		}
		if !ok || stored.Score != vs.Score || stored.SoftwareCount != vs.SoftwareCount {
			changedVendors = append(changedVendors, vs)
		}
	}

	s.mu.Lock()
	s.aggSched = s.aggSched.Ran(now)
	sched := s.aggSched
	s.mu.Unlock()
	err = s.store.PublishAggregation(repo.AggregationPublish{
		Scores:             changedScores,
		VendorScores:       changedVendors,
		ClearDirtySoftware: dirtySw,
		ClearDirtyUsers:    dirtyUsers,
		Schedule:           sched,
	})
	if err != nil {
		return fmt.Errorf("server: publish aggregation: %w", err)
	}
	if len(changedScores) > 0 || len(changedVendors) > 0 {
		s.reports.InvalidateAll()
	}
	return nil
}

// parallelForEach runs fn(0..n-1) across up to GOMAXPROCS goroutines.
// Indexes are handed out atomically; callers get determinism by writing
// results into index-addressed slots and merging in index order.
func parallelForEach(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
