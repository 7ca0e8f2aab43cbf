//go:build linux

package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"softreputation/internal/client"
	"softreputation/internal/core"
)

// batchSize is the number of lookups per /api/lookup-batch frame.
const batchSize = 64

type opKind uint8

const (
	opLookup opKind = iota // one API.Lookup
	opBatch                // one API.LookupBatch frame of batchSize lookups
	opVote                 // one API.Vote
)

// op is one generated request. progs is owned by the caller's buffer
// and valid until the next generate call on it.
type op struct {
	kind  opKind
	progs []int // program indices: one for lookup and vote, batchSize for a batch
	user  int   // voter (opVote)
	score int   // 1-10 (opVote)
}

// ops returns how many logical operations the request carries.
func (o *op) ops() int { return len(o.progs) }

// workload is one traffic mix. Its request stream is a pure function of
// (catalogue seed, worker, k); see mix.
type workload struct {
	name   string
	why    string
	binary bool // binary protocol; false is the paper's XML, the repclient default
	// perFrame is the number of lookups a lookup request carries: 1, or
	// batchSize where the workload uses /api/lookup-batch.
	perFrame int
	// warmOps is the warm-up length in requests per worker. It is a
	// count, not a time, so that set-up time measures work done.
	warmOps int
	// scanHot starts the warm-up with one pass over the hot catalogue in
	// the workload's own framing (see scan), so that the timed window
	// starts with the working set cached instead of filling it for as
	// long as the rare programs take to come up.
	scanHot bool
	// gen fills o with worker w's k-th request.
	gen func(c *catalogue, w, k int, o *op)
}

var workloads = []workload{
	{
		name:     "lookup_hot",
		why:      "binary, one lookup per request, 90% on 200 programs: fits the report cache, so socket/HTTP, admission and the cache hit path do the work",
		binary:   true,
		perFrame: 1,
		warmOps:  1000,
		scanHot:  true,
		gen: func(c *catalogue, w, k int, o *op) {
			o.kind = opLookup
			o.progs = append(o.progs[:0], c.skewedHot(mix(c.seed, tagOp, 1, uint64(w), uint64(k))))
		},
	},
	{
		name:     "lookup_cold",
		why:      "binary, one lookup per request, uniform over 20,000 programs (4.9x the cache): most lookups miss, so report building, repo/storedb reads and encoding do the work",
		binary:   true,
		perFrame: 1,
		warmOps:  3000, // 6,000 lookups, four in five of them misses: fills the 4,096 entries
		gen: func(c *catalogue, w, k int, o *op) {
			o.kind = opLookup
			o.progs = append(o.progs[:0], int(mix(c.seed, tagOp, 2, uint64(w), uint64(k))%uint64(c.sz.programs)))
		},
	},
	{
		name:     "batch_prefetch",
		why:      "binary /api/lookup-batch, 64 lookups per frame, same skew as lookup_hot: HTTP cost is amortised 64x, so the wire codec and the cache dominate",
		binary:   true,
		perFrame: batchSize,
		warmOps:  50,
		scanHot:  true,
		gen: func(c *catalogue, w, k int, o *op) {
			o.kind = opBatch
			o.progs = o.progs[:0]
			for j := 0; j < batchSize; j++ {
				o.progs = append(o.progs, c.skewedHot(mix(c.seed, tagOp, 3, uint64(w), uint64(k), uint64(j))))
			}
		},
	},
	{
		name:     "paper_mix",
		why:      "the paper's XML protocol, 4 lookups then 1 vote on the hot catalogue: adds cache invalidation, storedb writes and the XML codec to the read path",
		binary:   false,
		perFrame: 1,
		warmOps:  1000,
		scanHot:  true,
		gen: func(c *catalogue, w, k int, o *op) {
			if k%mixPeriod != mixPeriod-1 {
				o.kind = opLookup
				o.progs = append(o.progs[:0], c.skewedHot(mix(c.seed, tagOp, 4, uint64(w), uint64(k))))
				return
			}
			o.kind = opVote
			prog, user := c.voteOf(w, k/mixPeriod)
			o.progs = append(o.progs[:0], prog)
			o.user = user
			o.score = 1 + int(mix(c.seed, tagOp, 5, uint64(w), uint64(k))%10)
		},
	},
}

// mixPeriod is paper_mix's cycle: mixPeriod-1 lookups, then one vote.
const mixPeriod = 5

// scan is the warm-up pass over the hot catalogue: worker w's k-th scan
// request covers the next programs of its half (p%numWorkers == w), one
// per lookup or batchSize per frame, wrapping at the end. Votes are not
// part of it.
func (wl *workload) scan(c *catalogue, w, k int, o *op) {
	owned := c.sz.hot / numWorkers
	o.kind, o.progs = opLookup, o.progs[:0]
	if wl.perFrame > 1 {
		o.kind = opBatch
	}
	for j := 0; j < wl.perFrame; j++ {
		o.progs = append(o.progs, w+numWorkers*((k*wl.perFrame+j)%owned))
	}
}

// scanLen is the number of scan requests per worker.
func (wl *workload) scanLen(c *catalogue) int {
	owned := c.sz.hot / numWorkers
	return (owned + wl.perFrame - 1) / wl.perFrame
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// skewedHot maps a random word to a hot-catalogue program: 90% of draws
// land on the hottest tenth of the hot catalogue, the rest on the other
// nine tenths.
func (c *catalogue) skewedHot(u uint64) int {
	hottest := c.sz.hot / 10
	if u%10 < 9 {
		return int((u >> 8) % uint64(hottest))
	}
	return hottest + int((u>>8)%uint64(c.sz.hot-hottest))
}

// numWorkers is fixed at 2 (the size of the machine class the numbers
// are compared on), not read from the host, so that results compare
// across machines.
const numWorkers = 2

// voteOf returns worker w's v-th benchmark vote as (program, user). A
// user may rate a program once, so the pairs must never repeat and never
// collide with a seeded rating: worker w owns the hot programs p with
// p%numWorkers == w, walks them in a scattered order, and on its r-th
// pass over them votes as the r-th user after the program's seeded
// raters (see seededRater).
func (c *catalogue) voteOf(w, v int) (prog, user int) {
	owned := c.sz.hot / numWorkers
	round, pos := v/owned, v%owned
	// 7919 is prime, so pos -> pos*7919 mod owned is a permutation
	// whenever owned is not a multiple of it.
	prog = w + numWorkers*((pos*7919)%owned)
	user = (prog + c.sz.hotRatings + round) % c.sz.users
	return prog, user
}

// maxVotes is how many votes one worker's stream holds before a
// (user, program) pair would repeat.
func (c *catalogue) maxVotes() int {
	return (c.sz.hot / numWorkers) * (c.sz.users - c.sz.hotRatings)
}

// ackedVote is a vote the daemon answered 2xx.
type ackedVote struct{ prog, user int }

// target is what a worker drives: the API plus the sessions votes need.
type target struct {
	api      *client.API
	sessions []string // by user number
}

// execute performs o against t and checks every answer. It returns the
// number of failed logical operations (0 when all were correct) and the
// first failure's description.
func (c *catalogue) execute(ctx context.Context, t *target, o *op) (failed int, why string) {
	switch o.kind {
	case opLookup:
		p := o.progs[0]
		rep, err := t.api.Lookup(ctx, c.programs[p].meta)
		if err == nil {
			err = c.programs[p].expect.check(&rep)
		}
		if err != nil {
			return 1, fmt.Sprintf("lookup program %d: %v", p, err)
		}
	case opBatch:
		metas := make([]core.SoftwareMeta, len(o.progs))
		for i, p := range o.progs {
			metas[i] = c.programs[p].meta
		}
		results, err := t.api.LookupBatch(ctx, metas)
		if err != nil {
			return len(o.progs), fmt.Sprintf("batch: %v", err)
		}
		for i, p := range o.progs {
			err := results[i].Err
			if err == nil {
				err = c.programs[p].expect.check(&results[i].Report)
			}
			if err != nil {
				failed++
				if why == "" {
					why = fmt.Sprintf("batch entry %d program %d: %v", i, p, err)
				}
			}
		}
	case opVote:
		p := o.progs[0]
		if _, err := t.api.Vote(ctx, t.sessions[o.user], c.programs[p].meta, client.Rating{Score: o.score}); err != nil {
			return 1, fmt.Sprintf("vote program %d user %d: %v", p, o.user, err)
		}
	}
	return failed, why
}

// check compares a report with the expectation. client.Report does not
// carry the wire id, so identity is checked through the program tag
// that starts every seeded comment: a report of another program fails
// on its first comment.
func (e *expectation) check(rep *client.Report) error {
	switch {
	case !rep.Known:
		return fmt.Errorf("reported unknown")
	case math.Abs(rep.Score-e.score) > 1e-9:
		return fmt.Errorf("score %v, want %v", rep.Score, e.score)
	case rep.Votes != e.votes:
		return fmt.Errorf("votes %d, want %d", rep.Votes, e.votes)
	case len(rep.Comments) != e.comments:
		return fmt.Errorf("%d comments, want %d", len(rep.Comments), e.comments)
	}
	for _, cm := range rep.Comments {
		if !strings.HasPrefix(cm.Text, e.tag) {
			return fmt.Errorf("comment %q belongs to another program, want tag %s", cm.Text, e.tag)
		}
	}
	return nil
}
