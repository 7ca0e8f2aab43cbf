package simulation

import (
	"fmt"
	"math/rand"

	"softreputation/internal/core"
	"softreputation/internal/metrics"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
)

// WorldConfig assembles a simulated deployment.
type WorldConfig struct {
	// Seed drives every random choice in the world.
	Seed int64
	// Catalog configures the software population; zero Total selects
	// the default catalog.
	Catalog CatalogConfig
	// Population configures the user community.
	Population PopulationConfig
	// Server tweaks the server configuration (store and clock are
	// always owned by the world). Nil fields are filled in.
	Server server.Config
	// NoEmailPepper forces an empty e-mail pepper (the E10 ablation);
	// otherwise an unset pepper gets a default.
	NoEmailPepper bool
}

// World is a running simulated deployment: one server, a software
// catalog with ground truth, and a registered, activated, logged-in
// user population, all driven by one virtual clock.
type World struct {
	// Clock is the world's virtual time source.
	Clock *vclock.Virtual
	// Server is the reputation server under test.
	Server *server.Server
	// Catalog is the software population.
	Catalog *Catalog
	// Agents is the user population, sessions filled in.
	Agents []*Agent

	rng   *rand.Rand
	store *repo.Store
	scfg  server.Config // what Server was built with, its mailer filled in
}

// NewWorld builds and boots a world: generates the catalog and
// population, starts an in-memory server on a virtual clock, and walks
// every agent through registration, activation and login.
func NewWorld(cfg WorldConfig) (*World, error) { return newWorld(cfg, repo.OpenMemory()) }

// newWorld boots a world over store, which it closes on failure.
func newWorld(cfg WorldConfig, store *repo.Store) (*World, error) {
	if cfg.Catalog.Total == 0 {
		cfg.Catalog = DefaultCatalogConfig(cfg.Seed)
	}
	if cfg.Catalog.Seed == 0 {
		cfg.Catalog.Seed = cfg.Seed
	}
	if cfg.Population.Seed == 0 {
		cfg.Population.Seed = cfg.Seed + 1
	}

	clock := vclock.NewVirtual(vclock.Epoch)
	scfg := cfg.Server
	scfg.Store = store
	scfg.Clock = clock
	if scfg.EmailPepper == "" && !cfg.NoEmailPepper {
		scfg.EmailPepper = "world-pepper"
	}
	srv, err := server.New(scfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	scfg.Mailer = srv.Mailer()

	w := &World{
		Clock:   clock,
		Server:  srv,
		Catalog: GenerateCatalog(cfg.Catalog),
		Agents:  GeneratePopulation(cfg.Population),
		rng:     rand.New(rand.NewSource(cfg.Seed + 2)),
		store:   store,
		scfg:    scfg,
	}
	if err := w.enroll(); err != nil {
		store.Close()
		return nil, err
	}
	return w, nil
}

// Close releases the world's store.
func (w *World) Close() error { return w.store.Close() }

// enroll registers, activates and logs in every agent.
func (w *World) enroll() error {
	mailer, ok := w.Server.Mailer().(*server.MemoryMailer)
	if !ok {
		return fmt.Errorf("simulation: world requires the in-memory mailer")
	}
	for _, a := range w.Agents {
		email := a.Name + "@sim.example"
		params := server.RegisterParams{
			Username: a.Name,
			Password: "pw-" + a.Name,
			Email:    email,
		}
		// Honest users solve whatever challenges the server poses: a
		// CAPTCHA costs them a moment of attention, a puzzle some CPU.
		ch, err := w.Server.IssueChallenge()
		if err != nil {
			return fmt.Errorf("simulation: challenge for %s: %w", a.Name, err)
		}
		params.CaptchaNonce = ch.Captcha.Nonce
		params.CaptchaSolution = w.Server.CaptchaGate().Solve(ch.Captcha, nil)
		if ch.Puzzle.Difficulty > 0 {
			sol, _ := ch.Puzzle.Solve()
			params.PuzzleNonce = ch.Puzzle.Nonce
			params.PuzzleSolution = sol
		}
		if err := w.Server.Register(params); err != nil {
			return fmt.Errorf("simulation: enroll %s: %w", a.Name, err)
		}
		mail, ok := mailer.Read(email)
		if !ok {
			return fmt.Errorf("simulation: no activation mail for %s", a.Name)
		}
		if _, err := w.Server.Activate(mail.Token); err != nil {
			return fmt.Errorf("simulation: activate %s: %w", a.Name, err)
		}
		session, err := w.Server.Login(a.Name, "pw-"+a.Name)
		if err != nil {
			return fmt.Errorf("simulation: login %s: %w", a.Name, err)
		}
		a.Session = session
	}
	return nil
}

// SeedVotes has the population vote: each agent rates votesPerAgent
// catalog items drawn without replacement from their own shuffled view
// of the catalog, with comments attached. It returns the number of
// accepted votes.
func (w *World) SeedVotes(votesPerAgent int) (int, error) {
	accepted := 0
	for _, a := range w.Agents {
		perm := w.rng.Perm(len(w.Catalog.Items))
		n := votesPerAgent
		if n > len(perm) {
			n = len(perm)
		}
		for _, idx := range perm[:n] {
			exe := w.Catalog.Items[idx]
			score, behaviors := a.Observe(exe)
			comment := a.Comment(score, behaviors)
			_, err := w.Server.Vote(a.Session, MetaOf(exe), score, behaviors, comment)
			if err != nil {
				continue // budget or duplicate; both are legitimate outcomes
			}
			accepted++
		}
	}
	return accepted, nil
}

// GrowExpertTrust simulates weeks of community feedback that raise the
// experts' trust factors along the §3.2 schedule: each week, every
// expert receives enough positive remarks to hit the weekly growth cap.
// Novices stay at the minimum.
func (w *World) GrowExpertTrust(weeks int) error {
	// Each expert posts one comment that the community then remarks.
	type expertComment struct {
		agent *Agent
		cid   uint64
	}
	var comments []expertComment
	itemIdx := 0
	for _, a := range w.Agents {
		if a.Class != Expert {
			continue
		}
		// Find an item this expert has not rated yet.
		for ; itemIdx < len(w.Catalog.Items); itemIdx++ {
			exe := w.Catalog.Items[itemIdx]
			score, behaviors := a.Observe(exe)
			cid, err := w.Server.Vote(a.Session, MetaOf(exe), score, behaviors, "expert analysis")
			if err != nil {
				continue
			}
			comments = append(comments, expertComment{agent: a, cid: cid})
			itemIdx++
			break
		}
	}
	// Round-robin positive remarkers: each remark may only be cast once
	// per (user, comment), so rotate through the novice population.
	novices := make([]*Agent, 0, len(w.Agents))
	for _, a := range w.Agents {
		if a.Class == Novice {
			novices = append(novices, a)
		}
	}
	if len(novices) == 0 {
		return fmt.Errorf("simulation: expert trust growth needs novice remarkers")
	}
	// One remark per (user, comment) is allowed, so each comment walks
	// its own cursor through the novice list across weeks.
	cursor := make([]int, len(comments))
	perWeek := int(core.TrustWeeklyGrowthCap/core.RemarkPositiveDelta) + 1
	for week := 0; week < weeks; week++ {
		for ci, ec := range comments {
			for i := 0; i < perWeek && cursor[ci] < len(novices); i++ {
				nov := novices[cursor[ci]]
				cursor[ci]++
				if err := w.Server.Remark(nov.Session, ec.cid, true); err != nil {
					return fmt.Errorf("simulation: remark: %w", err)
				}
			}
		}
		w.Clock.Advance(vclock.Week)
	}
	return nil
}

// Aggregate runs the server's aggregation job once.
func (w *World) Aggregate() error { return w.Server.RunAggregation() }

// ScoreError compares published scores against ground truth over all
// catalog items with at least minVotes votes, returning the RMSE and
// the number of items compared.
func (w *World) ScoreError(minVotes int) (rmse float64, compared int, err error) {
	var predicted, truth []float64
	for _, exe := range w.Catalog.Items {
		sc, ok, err := w.store.GetScore(exe.ID())
		if err != nil {
			return 0, 0, err
		}
		if !ok || sc.Votes < minVotes {
			continue
		}
		predicted = append(predicted, sc.Score)
		truth = append(truth, exe.Profile.TrueScore)
	}
	if len(predicted) == 0 {
		return 0, 0, nil
	}
	return metrics.RMSE(predicted, truth), len(predicted), nil
}

// serverConfigWithPolicy builds a server config selecting an explicit
// aggregation policy, for policy-ablation experiments.
func serverConfigWithPolicy(p core.AggregationPolicy) server.Config {
	return server.Config{Aggregation: &p}
}

// Store exposes the world's repository for experiment assertions.
func (w *World) Store() *repo.Store { return w.store }
