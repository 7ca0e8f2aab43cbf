//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// streamDigest hashes the first n requests of every workload and worker
// together with every program's expected report.
func streamDigest(c *catalogue, n int) [sha256.Size]byte {
	h := sha256.New()
	var o op
	for i := range workloads {
		wl := &workloads[i]
		for w := 0; w < numWorkers; w++ {
			for k := 0; k < n; k++ {
				wl.gen(c, w, k, &o)
				fmt.Fprintf(h, "%s/%d/%d:%d %v %d %d\n", wl.name, w, k, o.kind, o.progs, o.user, o.score)
			}
		}
	}
	for p := range c.programs {
		e := &c.programs[p].expect
		h.Write(c.programs[p].meta.ID[:])
		fmt.Fprintf(h, "%s %s %v %d %d\n", c.programs[p].meta.FileName, e.tag, e.score, e.votes, e.comments)
		for j := 0; j < c.ratingsFor(p); j++ {
			score, behaviors, comment := c.seededRating(p, j)
			binary.Write(h, binary.BigEndian, int64(score))
			fmt.Fprintf(h, "%d %d %s\n", c.seededRater(p, j), behaviors, comment)
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameStreamAndExpectations(t *testing.T) {
	a := streamDigest(newCatalogue(7, quickSizes), 2000)
	b := streamDigest(newCatalogue(7, quickSizes), 2000)
	if a != b {
		t.Error("the same seed gave two different request streams or expectations")
	}
	if c := streamDigest(newCatalogue(8, quickSizes), 2000); c == a {
		t.Error("another seed gave the same streams")
	}
}

// Every benchmark vote must be a (user, program) pair that no seeded
// rating and no other benchmark vote uses, for as long as maxVotes says.
func TestVotesNeverRepeatOrCollideWithSeededRatings(t *testing.T) {
	for _, sz := range []sizes{quickSizes, fullSizes} {
		c := newCatalogue(1, sz)
		type pair struct{ prog, user int }
		used := map[pair]bool{}
		for p := 0; p < sz.hot; p++ {
			for j := 0; j < c.ratingsFor(p); j++ {
				used[pair{p, c.seededRater(p, j)}] = true
			}
		}
		for w := 0; w < numWorkers; w++ {
			for v := 0; v < c.maxVotes(); v++ {
				prog, user := c.voteOf(w, v)
				if prog < 0 || prog >= sz.hot || prog%numWorkers != w {
					t.Fatalf("worker %d vote %d: program %d is not one of its hot programs", w, v, prog)
				}
				if used[pair{prog, user}] {
					t.Fatalf("worker %d vote %d: (program %d, user %d) already rated", w, v, prog, user)
				}
				used[pair{prog, user}] = true
			}
		}
	}
}

func TestSkewedHotSendsNineInTenToTheHottestTenth(t *testing.T) {
	c := newCatalogue(3, fullSizes)
	hottest, n := 0, 100000
	for k := 0; k < n; k++ {
		p := c.skewedHot(mix(c.seed, tagOp, 1, 0, uint64(k)))
		if p < 0 || p >= c.sz.hot {
			t.Fatalf("program %d outside the hot catalogue", p)
		}
		if p < c.sz.hot/10 {
			hottest++
		}
	}
	if frac := float64(hottest) / float64(n); frac < 0.89 || frac > 0.91 {
		t.Errorf("%.3f of draws on the hottest tenth, want 0.90", frac)
	}
}

func TestScanCoversTheHotCatalogueOnce(t *testing.T) {
	c := newCatalogue(1, fullSizes)
	for i := range workloads {
		wl := &workloads[i]
		if !wl.scanHot {
			continue
		}
		seen := map[int]int{}
		var o op
		for w := 0; w < numWorkers; w++ {
			for k := 0; k < wl.scanLen(c); k++ {
				wl.scan(c, w, k, &o)
				for _, p := range o.progs {
					seen[p]++
				}
			}
		}
		if len(seen) != c.sz.hot {
			t.Errorf("%s: scan touched %d programs, want the %d of the hot catalogue", wl.name, len(seen), c.sz.hot)
		}
	}
}

func TestExpectationCheck(t *testing.T) {
	c := newCatalogue(1, quickSizes)
	e := &c.programs[3].expect
	if e.votes != quickSizes.hotRatings || e.comments != quickSizes.hotRatings {
		t.Fatalf("hot program expects %d votes, %d comments", e.votes, e.comments)
	}
	if e.score < 1 || e.score > 10 {
		t.Fatalf("expected score %v outside 1..10", e.score)
	}
}
