package attack

import (
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/identity"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
)

func newServer(t *testing.T, mutate func(*server.Config)) *server.Server {
	t.Helper()
	store := repo.OpenMemory()
	t.Cleanup(func() { store.Close() })
	cfg := server.Config{
		Store:       store,
		Clock:       vclock.NewVirtual(vclock.Epoch),
		EmailPepper: "pepper",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func targetMeta(seed byte) core.SoftwareMeta {
	content := []byte{seed, seed, seed, seed}
	return core.SoftwareMeta{
		ID:       core.ComputeSoftwareID(content),
		FileName: "victim.exe",
		FileSize: 4,
		Vendor:   "Victim Corp",
	}
}

func TestSybilWithUniqueEmails(t *testing.T) {
	srv := newServer(t, nil)
	a := NewSybil(srv, "atk")
	created, err := a.CreateAccounts(20, true)
	if err != nil {
		t.Fatal(err)
	}
	if created != 20 || a.created != 20 || len(a.Sessions) != 20 {
		t.Fatalf("created = %d, sessions = %d", created, len(a.Sessions))
	}
}

func TestEmailUniquenessBlocksSharedMailbox(t *testing.T) {
	srv := newServer(t, nil)
	a := NewSybil(srv, "atk")
	created, err := a.CreateAccounts(20, false)
	if err != nil {
		t.Fatal(err)
	}
	if created != 1 {
		t.Fatalf("shared-mailbox attacker created %d accounts, want 1", created)
	}
}

func TestSybilPaysCaptchaCost(t *testing.T) {
	srv := newServer(t, func(c *server.Config) { c.RequireCaptcha = true })
	a := NewSybil(srv, "atk")
	created, err := a.CreateAccounts(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if created != 10 {
		t.Fatalf("created = %d", created)
	}
	if a.Meter.Spent() < 10*identity.HumanCostPerSolve {
		t.Fatalf("attacker paid %v human units for 10 accounts", a.Meter.Spent())
	}
}

func TestSybilPaysPuzzleCost(t *testing.T) {
	srv := newServer(t, func(c *server.Config) { c.PuzzleDifficulty = 10 })
	a := NewSybil(srv, "atk")
	created, err := a.CreateAccounts(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if created != 5 {
		t.Fatalf("created = %d", created)
	}
	// Expectation is 5 * 2^10 hashes; accept any clearly nonzero cost
	// above the floor of one hash per account.
	if a.PuzzleHashes < 100 {
		t.Fatalf("attacker spent only %d hashes", a.PuzzleHashes)
	}
}

func TestStuffBallotsOneVoteEach(t *testing.T) {
	srv := newServer(t, nil)
	meta := targetMeta(1)
	if _, err := srv.Lookup(meta); err != nil {
		t.Fatal(err)
	}
	a := NewSybil(srv, "atk")
	if _, err := a.CreateAccounts(15, true); err != nil {
		t.Fatal(err)
	}
	accepted, rejected := a.StuffBallots(meta, core.ScoreMin)
	if accepted != 15 || rejected != 0 {
		t.Fatalf("first wave: %d/%d", accepted, rejected)
	}
	// The same accounts cannot vote twice.
	accepted, rejected = a.StuffBallots(meta, core.ScoreMin)
	if accepted != 0 || rejected != 15 {
		t.Fatalf("second wave: %d/%d", accepted, rejected)
	}
}

func TestPromoteAndSmearScores(t *testing.T) {
	srv := newServer(t, nil)
	own := targetMeta(1)
	victim := targetMeta(2)
	srv.Lookup(own)
	srv.Lookup(victim)
	a := NewSybil(srv, "atk")
	a.CreateAccounts(5, true)
	a.Promote(own)
	a.StuffBallots(victim, core.ScoreMin)
	if err := srv.RunAggregation(); err != nil {
		t.Fatal(err)
	}
	repOwn, _ := srv.Lookup(own)
	repVictim, _ := srv.Lookup(victim)
	if repOwn.Score.Score != core.ScoreMax {
		t.Fatalf("promoted score = %v", repOwn.Score.Score)
	}
	if repVictim.Score.Score != core.ScoreMin {
		t.Fatalf("smeared score = %v", repVictim.Score.Score)
	}
}

func TestDailyBudgetThrottlesFlood(t *testing.T) {
	srv := newServer(t, func(c *server.Config) { c.MaxVotesPerUserPerDay = 3 })
	a := NewSybil(srv, "atk")
	a.CreateAccounts(1, true)
	// One account trying to smear ten different programs in one day.
	accepted := 0
	for seed := byte(1); seed <= 10; seed++ {
		meta := targetMeta(seed)
		srv.Lookup(meta)
		acc, _ := a.StuffBallots(meta, core.ScoreMin)
		accepted += acc
	}
	if accepted != 3 {
		t.Fatalf("budgeted flood accepted %d votes, want 3", accepted)
	}
}

func TestPolymorphicDistributor(t *testing.T) {
	base := hostsim.Build(hostsim.Spec{
		FileName: "freebie.exe",
		Vendor:   "EvasiveCorp",
		Seed:     1,
		Profile:  hostsim.Profile{Category: core.CategoryUnsolicited},
	})
	d := NewPolymorphicDistributor(base, 7)
	seen := map[core.SoftwareID]bool{base.ID(): true}
	for i := 0; i < 30; i++ {
		dl := d.NextDownload()
		if seen[dl.ID()] {
			t.Fatal("distributor repeated an identity")
		}
		seen[dl.ID()] = true
		meta, err := dl.Meta()
		if err != nil || meta.Vendor != "EvasiveCorp" {
			t.Fatalf("mutant metadata broken: %+v, %v", meta, err)
		}
	}
}
