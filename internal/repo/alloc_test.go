package repo

import (
	"fmt"
	"testing"

	"softreputation/internal/core"
	"softreputation/internal/storedb"
	"softreputation/internal/vclock"
)

// TestReadAllocPins pins what the report-path getters cost in heap
// allocations, so the waste removed under them (a Bucket and a prefix
// per MustBucket, a wrapped key per Get, whole-record decodes for one
// field) does not creep back. A pin is the measured value; raise one
// only with the reason in the commit.
func TestReadAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := OpenMemory()
	defer s.Close()
	meta := mustUpsertSoftware(t, s, 1)
	users := []string{"ann", "bob", "cyd"}
	for i, name := range users {
		mustCreateUser(t, s, name)
		r := core.Rating{UserID: name, Software: meta.ID, Score: 5 + i, At: vclock.Epoch}
		if _, err := s.AddRating(r, fmt.Sprintf("comment by %s", name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetScore(core.SoftwareScore{Software: meta.ID, Score: 6, Votes: 3, ComputedAt: vclock.Epoch}); err != nil {
		t.Fatal(err)
	}

	pins := []struct {
		name string
		want float64
		call func() error
	}{
		// Parent commit (03455e6): 5.
		{"GetScore", 2, func() error { _, _, err := s.GetScore(meta.ID); return err }},
		// Parent commit: 27.
		{"CommentsForSoftware/3", 12, func() error { _, err := s.CommentsForSoftware(meta.ID); return err }},
		// Parent commit: 20.
		{"TrustForUsers/3", 3, func() error { _, err := s.TrustForUsers(users); return err }},
	}
	for _, p := range pins {
		var err error
		got := testing.AllocsPerRun(200, func() {
			if e := p.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		t.Logf("%s: %.0f allocs/call (pin %.0f)", p.name, got, p.want)
		if got > p.want {
			t.Errorf("%s: %.0f allocs/call, pinned at %.0f", p.name, got, p.want)
		}
	}
}

// TestAddRatingAllocPin pins what the write path's one store call costs
// a score-only vote on a known program, the shape the benchmark's
// paper_mix casts, on a store that logs to disk as the daemon's does
// (50 in memory), so that the path has its baseline before anyone works
// on it: of a vote's 81 allocations through the handler chain
// (server.TestVoteAllocBudget) these are the most.
func TestAddRatingAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, err := Open(storedb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustCreateUser(t, s, "ann")
	const runs = 200
	ids := make([]core.SoftwareID, runs+1) // AllocsPerRun calls once more, to warm up
	for i := range ids {
		ids[i] = mustUpsertSoftware(t, s, byte(i)).ID
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		r := core.Rating{UserID: "ann", Software: ids[next], Score: 7, At: vclock.Epoch}
		if _, e := s.AddRating(r, ""); e != nil {
			err = e
		}
		next++
	})
	if err != nil {
		t.Fatal(err)
	}
	const pin = 54
	t.Logf("AddRating: %.0f allocs/call (pin %d)", got, pin)
	if got > pin {
		t.Errorf("AddRating: %.0f allocs/call, pinned at %d", got, pin)
	}
}
