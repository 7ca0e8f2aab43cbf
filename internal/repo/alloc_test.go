package repo

import (
	"fmt"
	"testing"

	"softreputation/internal/core"
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
