package analysis

import (
	"strings"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/repo"
	"softreputation/internal/server"
	"softreputation/internal/vclock"
)

func sample(seed int64, behaviors core.Behavior) *hostsim.Executable {
	return hostsim.Build(hostsim.Spec{
		FileName: "sample.exe",
		Vendor:   "Lab",
		Seed:     seed,
		Profile: hostsim.Profile{
			Category:  core.CategoryUnsolicited,
			Behaviors: behaviors,
		},
	})
}

func TestSandboxNoFalsePositives(t *testing.T) {
	// Detection probabilities only apply to behaviours the sample truly
	// has; a clean sample must never produce observations.
	sb := NewSandbox(nil, 1)
	clean := sample(1, 0)
	for i := 0; i < 20; i++ {
		f, err := sb.Analyze(clean, 3)
		if err != nil {
			t.Fatal(err)
		}
		if f.Observed != 0 {
			t.Fatalf("clean sample produced observations: %v", f.Observed)
		}
		if f.SuggestedScore < 8 {
			t.Fatalf("clean sample scored %v", f.SuggestedScore)
		}
	}
}

func TestSandboxDetectsObviousBehaviors(t *testing.T) {
	sb := NewSandbox(nil, 2)
	ads := sample(2, core.BehaviorDisplaysAds|core.BehaviorBundledSoftware)
	f, err := sb.Analyze(ads, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 5 runs at 0.95/0.85 per-run probability: both flags all but
	// certain.
	if !f.Observed.Has(core.BehaviorDisplaysAds) || !f.Observed.Has(core.BehaviorBundledSoftware) {
		t.Fatalf("observed = %v", f.Observed)
	}
	if f.SuggestedScore >= 8 {
		t.Fatalf("invasive sample scored %v", f.SuggestedScore)
	}
	if f.Runs != 5 || f.Software != ads.ID() {
		t.Fatalf("finding metadata wrong: %+v", f)
	}
}

func TestSandboxMoreRunsSeeMore(t *testing.T) {
	// A covert behaviour (keylogging, p=0.45/run) is missed sometimes in
	// one run but found nearly always in ten.
	covert := sample(3, core.BehaviorKeylogging)
	missesOne, missesTen := 0, 0
	const trials = 60
	for i := 0; i < trials; i++ {
		one, err := NewSandbox(nil, int64(100+i)).Analyze(covert, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !one.Observed.Has(core.BehaviorKeylogging) {
			missesOne++
		}
		ten, err := NewSandbox(nil, int64(200+i)).Analyze(covert, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !ten.Observed.Has(core.BehaviorKeylogging) {
			missesTen++
		}
	}
	if missesOne <= missesTen {
		t.Fatalf("1-run misses (%d) should exceed 10-run misses (%d)", missesOne, missesTen)
	}
	if missesTen > trials/10 {
		t.Fatalf("10-run analysis missed too often: %d/%d", missesTen, trials)
	}
}

func TestSuggestedScoreMonotone(t *testing.T) {
	// More invasive behaviour never raises the score.
	sb := NewSandbox(DetectionProfile{
		core.BehaviorDisplaysAds: 1, core.BehaviorKeylogging: 1,
		core.BehaviorSendsPersonalData: 1,
	}, 4)
	mild := sample(4, core.BehaviorDisplaysAds)
	severe := sample(5, core.BehaviorDisplaysAds|core.BehaviorKeylogging|core.BehaviorSendsPersonalData)
	fm, _ := sb.Analyze(mild, 1)
	fs, _ := sb.Analyze(severe, 1)
	if fs.SuggestedScore >= fm.SuggestedScore {
		t.Fatalf("severe %v >= mild %v", fs.SuggestedScore, fm.SuggestedScore)
	}
	if fs.SuggestedScore < core.ScoreMin {
		t.Fatal("score fell below the scale")
	}
}

func TestPipelinePublishesHardEvidence(t *testing.T) {
	store := repo.OpenMemory()
	defer store.Close()
	srv, err := server.New(server.Config{Store: store, Clock: vclock.NewVirtual(vclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	feed := srv.Feed("runtime-analysis")
	pipe := NewPipeline(NewSandbox(nil, 6), feed, 5)

	ads := sample(6, core.BehaviorDisplaysAds)
	clean := sample(7, 0)
	pipe.Submit(ads)
	pipe.Submit(clean)
	if len(pipe.queue) != 2 {
		t.Fatalf("pending = %d", len(pipe.queue))
	}
	n, err := pipe.Drain()
	if err != nil || n != 2 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	if len(pipe.queue) != 0 {
		t.Fatal("queue not drained")
	}

	advice, ok := feed.Advice(ads.ID())
	if !ok {
		t.Fatal("no advice published for the ad sample")
	}
	if !advice.Behaviors.Has(core.BehaviorDisplaysAds) {
		t.Fatalf("advice behaviours = %v", advice.Behaviors)
	}
	if !strings.Contains(advice.Note, "runtime analysis") {
		t.Fatalf("note = %q", advice.Note)
	}
	cleanAdvice, ok := feed.Advice(clean.ID())
	if !ok || cleanAdvice.Score <= advice.Score {
		t.Fatalf("clean advice %v should outrank ad advice %v", cleanAdvice.Score, advice.Score)
	}
	// Draining again with an empty queue is a no-op.
	if n, err := pipe.Drain(); err != nil || n != 2 {
		t.Fatalf("second drain: %d, %v", n, err)
	}
}
