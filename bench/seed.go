//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

// sizes fixes how much data one run seeds. The hot catalogue is the
// first hot programs; it fits the daemon's 4,096-entry report cache,
// the whole catalogue (4.9x the cache) does not.
type sizes struct {
	programs    int // catalogue size
	hot         int // programs[:hot] are the hot catalogue
	users       int // activated accounts
	baseRatings int // seeded ratings (each with a comment) per program
	hotRatings  int // seeded ratings per hot-catalogue program
}

var (
	fullSizes  = sizes{programs: 20000, hot: 2000, users: 200, baseRatings: 3, hotRatings: 10}
	quickSizes = sizes{programs: 500, hot: 100, users: 200, baseRatings: 3, hotRatings: 10}
)

// pepper is the daemon's -pepper and the seeding server's EmailPepper;
// they must agree or the e-mail index would not match.
const pepper = "bench-pepper"

// seedTime is the fixed instant every seeded record is stamped with, so
// that report bytes (comment timestamps) do not depend on when the
// benchmark runs. It is a day after the virtual epoch the repo's
// simulations use.
var seedTime = vclock.Epoch.Add(vclock.Day)

// mix is a counter-based generator (splitmix64 finaliser over the
// folded inputs): every generated value is a pure function of the seed
// and its coordinates, so request k of worker w needs no shared state
// and any offset into a stream is free.
func mix(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 + p
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// Stream tags keep the generated families independent.
const (
	tagProgram = iota + 1
	tagRating
	tagOp
)

// expectation is what a correct lookup of one program must report. The
// published score and vote count move only at aggregation, which the
// daemon does not run inside a benchmark (its 24 h schedule is checked
// every 10 minutes), and benchmark votes carry no comment, so the
// expectation holds for the whole run.
type expectation struct {
	tag      string // every seeded comment on the program starts with it
	score    float64
	votes    int
	comments int
}

type program struct {
	meta   core.SoftwareMeta
	expect expectation
}

// catalogue is the deterministic world of one seed: programs, users,
// seeded ratings and (in workload.go) the request streams.
type catalogue struct {
	seed     uint64
	sz       sizes
	programs []program
}

func userName(i int) string     { return fmt.Sprintf("user-%03d", i) }
func userPassword(i int) string { return fmt.Sprintf("pw-%03d-bench", i) }
func userEmail(i int) string    { return fmt.Sprintf("user%03d@bench.example", i) }

// ratingsFor returns how many seeded ratings program p carries.
func (c *catalogue) ratingsFor(p int) int {
	if p < c.sz.hot {
		return c.sz.hotRatings
	}
	return c.sz.baseRatings
}

// seededRater returns the user who casts program p's j-th seeded
// rating. Raters of one program are consecutive user numbers starting
// at p, which leaves users p+hotRatings.. free for benchmark votes (see
// voteOf).
func (c *catalogue) seededRater(p, j int) int { return (p + j) % c.sz.users }

// seededRating returns the score, behaviours and comment of program p's
// j-th seeded rating.
func (c *catalogue) seededRating(p, j int) (score int, behaviors core.Behavior, comment string) {
	u := mix(c.seed, tagRating, uint64(p), uint64(j))
	score = 1 + int(u%10)
	behaviors = core.Behavior((u >> 8) & (1<<core.NumBehaviors - 1) & (u >> 16)) // sparse flags
	comment = fmt.Sprintf("%s r%d: ran it for %d weeks, %s", c.programs[p].expect.tag, j,
		1+(u>>24)%50, [...]string{
			"no surprises and a clean uninstall.",
			"shows pop-ups after the second start.",
			"asks for far more access than it needs.",
			"works as described, nothing bundled.",
		}[(u>>32)%4])
	return score, behaviors, comment
}

// newCatalogue derives the world of one seed.
func newCatalogue(seed uint64, sz sizes) *catalogue {
	c := &catalogue{seed: seed, sz: sz, programs: make([]program, sz.programs)}
	for p := range c.programs {
		u := mix(seed, tagProgram, uint64(p))
		content := fmt.Sprintf("bench-executable seed=%d program=%d", seed, p)
		c.programs[p].meta = core.SoftwareMeta{
			ID:       core.ComputeSoftwareID([]byte(content)),
			FileName: fmt.Sprintf("prog-%05d.exe", p),
			FileSize: 10_000 + int64(u%5_000_000),
			Vendor:   fmt.Sprintf("Vendor %03d Ltd", p%200),
			Version:  fmt.Sprintf("%d.%d.%d", 1+(u>>24)%9, (u>>32)%20, (u>>40)%100),
		}
		n := c.ratingsFor(p)
		sum := 0
		c.programs[p].expect.tag = fmt.Sprintf("p%05d", p)
		for j := 0; j < n; j++ {
			score, _, _ := c.seededRating(p, j)
			sum += score
		}
		// Every account still has the initial trust factor at
		// aggregation, so the trust-weighted mean is the plain mean.
		c.programs[p].expect.score = float64(sum) / float64(n)
		c.programs[p].expect.votes = n
		c.programs[p].expect.comments = n
	}
	return c
}

// seedStats are the set-up measurements of one seeding.
type seedStats struct {
	ratings        int
	aggregateFullS float64 // server.RunAggregation over the whole catalogue
	diskBytes      int64   // data dir size after Close
}

// seedDataDir builds the data directory for cat through the same
// public entry points a live deployment uses (Register, Activate,
// Login, Vote, RunAggregation), then closes the store. Everything
// written is a function of the seed except the password salts, which
// identity.HashPassword draws from crypto/rand.
func seedDataDir(dir string, cat *catalogue) (seedStats, error) {
	var st seedStats
	store, err := repo.Open(storedb.Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		return st, err
	}
	defer store.Close() // error paths; the success path checks Close below
	srv, err := server.New(server.Config{
		Store:       store,
		Clock:       vclock.NewVirtual(seedTime),
		EmailPepper: pepper,
	})
	if err != nil {
		return st, err
	}
	mail := srv.Mailer().(*server.MemoryMailer)
	sessions := make([]string, cat.sz.users)
	for i := range sessions {
		if err := srv.Register(server.RegisterParams{
			Username: userName(i), Password: userPassword(i), Email: userEmail(i),
		}); err != nil {
			return st, fmt.Errorf("seed: register %s: %w", userName(i), err)
		}
		m, ok := mail.Read(userEmail(i))
		if !ok {
			return st, fmt.Errorf("seed: no activation mail for %s", userName(i))
		}
		if _, err := srv.Activate(m.Token); err != nil {
			return st, fmt.Errorf("seed: activate %s: %w", userName(i), err)
		}
		if sessions[i], err = srv.Login(userName(i), userPassword(i)); err != nil {
			return st, fmt.Errorf("seed: login %s: %w", userName(i), err)
		}
	}
	for p := range cat.programs {
		for j := 0; j < cat.ratingsFor(p); j++ {
			score, behaviors, comment := cat.seededRating(p, j)
			if _, err := srv.Vote(sessions[cat.seededRater(p, j)], cat.programs[p].meta, score, behaviors, comment); err != nil {
				return st, fmt.Errorf("seed: vote program %d rating %d: %w", p, j, err)
			}
			st.ratings++
		}
	}
	t0 := time.Now()
	if err := srv.RunAggregation(); err != nil {
		return st, fmt.Errorf("seed: aggregation: %w", err)
	}
	st.aggregateFullS = time.Since(t0).Seconds()
	if err := store.Compact(); err != nil {
		return st, fmt.Errorf("seed: compact: %w", err)
	}
	if err := store.Close(); err != nil {
		return st, fmt.Errorf("seed: close: %w", err)
	}
	st.diskBytes, err = dirBytes(dir)
	return st, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
