package repo

import (
	"fmt"
	"runtime"
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
	if err := s.SetScores([]core.SoftwareScore{{Software: meta.ID, Score: 6, Votes: 3, ComputedAt: vclock.Epoch}}); err != nil {
		t.Fatal(err)
	}

	pins := []struct {
		name string
		want float64
		call func() error
	}{
		// Nothing: storedb's View inlines, so its transaction and the
		// Buckets taken from it stay on the stack. Parent commit: 2 (1
		// measured, the transaction); before that (03455e6) 5.
		{"GetScore", 0, func() error { _, _, err := s.GetScore(meta.ID); return err }},
		// Parent commit: 12 (8 measured); before that 27.
		{"CommentsForSoftware/3", 7, func() error { _, err := s.CommentsForSoftware(meta.ID); return err }},
		// Parent commit: 3; before that 20.
		{"TrustForUsers/3", 2, func() error { _, err := s.TrustForUsers(users); return err }},
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

// TestCastVoteAllocPin pins what the write path's one store call costs
// a score-only vote on a known program, the shape the benchmark's
// paper_mix casts, on a store that logs to disk as the daemon's does.
// Most of a vote's allocations and bytes are the tree's: one allocation
// per internal level of every path the transaction copies and two per
// leaf, and the copied leaves' contents, so the numbers that matter are
// the ones on a tree as deep as a real store's ("deep": over 100,000
// keys, which cannot fit fewer than four levels). The deep case's bytes are the in-process guard for the
// benchmark's paper_mix server_alloc_bytes_per_op: a leaf copy carries
// its entries' bytes, not pointers to them.
// The shallow case is kept beside it because an earlier commit pinned
// only that (54, on a store of 200 programs) and so never saw the 47 of
// 74 that a deep tree's path copies cost.
func TestCastVoteAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 200
	cases := []struct {
		name     string
		programs int
		keys     int // at least; at 16 entries a leaf and 32 children an internal node, three levels hold 16,384
		pin      float64
		bytes    float64 // heap bytes a call, when pinned
	}{
		// Measured 12: the tree's copies, the transaction, its op list
		// with its keys and values behind it, and its commit group.
		// Programs only. Parent commit: 15, each of the three internal
		// copies two allocations. Before that: 15, of which 8 the tree's
		// and 3 the key+value copies Bucket.Put made; those went, but at
		// 16 entries a leaf these 609 keys take three levels where 32
		// took two, and the vote copies the middle one too.
		{"shallow", runs + 1, 0, 12, 0},
		// Measured 16, 5,531 B. Two commented votes on every program.
		// Parent commit: 23 and 9,333 B, an internal copy then a header
		// and a slice of {bound, child} pairs, ≈ 800 B; now one ≈ 350 B
		// allocation sharing its bounds. Before that: 26 and 10,426 B, the
		// 3 more being the key+value copies.
		{"deep", 10000, 100000, 16, 5600},
	}
	for _, tc := range cases {
		s, err := Open(storedb.Options{Dir: t.TempDir(), CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ann", "bob", "cyd"} {
			mustCreateUser(t, s, name)
		}
		metas := make([]core.SoftwareMeta, tc.programs)
		for i := range metas {
			metas[i] = newSoftwareMeta(0)
			metas[i].ID = core.ComputeSoftwareID([]byte(fmt.Sprintf("program-%d", i)))
			if _, err := s.UpsertSoftware(metas[i], vclock.Epoch); err != nil {
				t.Fatal(err)
			}
			if tc.keys == 0 {
				continue
			}
			for _, name := range []string{"bob", "cyd"} {
				r := core.Rating{UserID: name, Software: metas[i].ID, Score: 5, At: vclock.Epoch}
				if _, err := s.AddRating(r, "a comment long enough to be one"); err != nil {
					t.Fatal(err)
				}
			}
		}
		keys := s.db.Len()
		if keys < tc.keys {
			t.Fatalf("%s: %d keys, want at least %d", tc.name, keys, tc.keys)
		}
		next := 0
		before := s.db.Seq()
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		got := testing.AllocsPerRun(runs, func() { // calls once more, to warm up
			v := Vote{Rating: core.Rating{UserID: "ann", Software: metas[next].ID, Score: 7, At: vclock.Epoch}, Meta: &metas[next]}
			if _, e := s.CastVote(v); e != nil {
				err = e
			}
			next++
		})
		runtime.ReadMemStats(&mem1)
		perCall := float64(mem1.TotalAlloc-mem0.TotalAlloc) / (runs + 1)
		if err != nil {
			t.Fatal(err)
		}
		if batches := s.db.Seq() - before; batches != runs+1 {
			t.Errorf("%s: %d votes made %d batches", tc.name, runs+1, batches)
		}
		s.Close()
		t.Logf("CastVote, %s (%d keys): %.0f allocs/call (pin %.0f), %.0f B/call (pin %.0f)", tc.name, keys, got, tc.pin, perCall, tc.bytes)
		if got > tc.pin {
			t.Errorf("CastVote, %s: %.0f allocs/call, pinned at %.0f", tc.name, got, tc.pin)
		}
		if tc.bytes > 0 && perCall > tc.bytes {
			t.Errorf("CastVote, %s: %.0f B/call, pinned at %.0f", tc.name, perCall, tc.bytes)
		}
	}
}
