package repcache

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fillConst(data string) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) { return []byte(data), true, nil }
}

func TestHitAfterDo(t *testing.T) {
	c := New(8)
	got, err := c.Do("sw1", "sw1|", fillConst("report-1"))
	if err != nil || string(got) != "report-1" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	cached, ok := c.Probe("sw1|")
	if !ok || string(cached) != "report-1" {
		t.Fatalf("Probe after Do = %q, %v", cached, ok)
	}
	calls := 0
	got, err = c.Do("sw1", "sw1|", func() ([]byte, bool, error) {
		calls++
		return []byte("rebuilt"), true, nil
	})
	if err != nil || string(got) != "report-1" || calls != 0 {
		t.Fatalf("second Do = %q calls=%d (want cached report-1, 0 calls)", got, calls)
	}
}

func TestInvalidateDropsOwnerOnly(t *testing.T) {
	c := New(8)
	// Two feed-set variants for sw1, one entry for sw2.
	c.Do("sw1", "sw1|", fillConst("a"))
	c.Do("sw1", "sw1|fast", fillConst("b"))
	c.Do("sw2", "sw2|", fillConst("c"))

	c.Invalidate("sw1")
	if _, ok := c.Probe("sw1|"); ok {
		t.Fatal("sw1| survived Invalidate(sw1)")
	}
	if _, ok := c.Probe("sw1|fast"); ok {
		t.Fatal("sw1|fast survived Invalidate(sw1)")
	}
	if got, ok := c.Probe("sw2|"); !ok || string(got) != "c" {
		t.Fatalf("sw2| = %q, %v; want c, true", got, ok)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(8)
	c.Do("sw1", "sw1|", fillConst("a"))
	c.Do("sw2", "sw2|", fillConst("b"))
	c.InvalidateAll()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries after InvalidateAll = %d", st.Entries)
	}
}

// TestInvalidationDuringFillRejectsStore is the versioning property: a
// fill that was in flight when its owner was invalidated must not be
// stored, or a hit could serve state older than an acknowledged write.
func TestInvalidationDuringFillRejectsStore(t *testing.T) {
	c := New(8)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("sw1", "sw1|", func() ([]byte, bool, error) {
			close(started)
			<-release
			return []byte("stale"), true, nil
		})
	}()
	<-started
	c.Invalidate("sw1") // the write lands mid-fill
	close(release)
	<-done
	if _, ok := c.Probe("sw1|"); ok {
		t.Fatal("fill overlapping an invalidation was stored")
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestLookupAfterInvalidationDoesNotJoinOlderFill: a fill that began
// before an invalidation read the store before the write, so a lookup
// that begins after it must build its own. The parent commit collapsed
// it onto the older fill, and a voter's next lookup could miss its vote.
func TestLookupAfterInvalidationDoesNotJoinOlderFill(t *testing.T) {
	c := New(8)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan string)
	go func() {
		got, _ := c.Do("sw1", "sw1|", func() ([]byte, bool, error) {
			close(started)
			<-release
			return []byte("stale"), true, nil
		})
		done <- string(got)
	}()
	<-started
	c.Invalidate("sw1")
	fresh := make(chan string, 1)
	go func() {
		got, _ := c.Do("sw1", "sw1|", fillConst("fresh"))
		fresh <- string(got)
	}()
	select {
	case got := <-fresh:
		if got != "fresh" {
			t.Fatalf("lookup after the invalidation = %q, want its own fill", got)
		}
	case <-time.After(time.Second):
		t.Fatal("lookup after the invalidation is parked on the older fill")
	}
	close(release)
	if got := <-done; got != "stale" {
		t.Fatalf("the older fill's own caller got %q", got)
	}
	if cached, ok := c.Probe("sw1|"); !ok || string(cached) != "fresh" {
		t.Fatalf("cached = %q, %v; want the newer fill's bytes", cached, ok)
	}
	if st := c.Stats(); st.Stored != 1 || st.Rejected != 1 || st.Collapsed != 0 {
		t.Fatalf("stats = %+v, want one stored, one rejected, none collapsed", st)
	}
}

func TestUncacheableAndErrorFills(t *testing.T) {
	c := New(8)
	// Not cacheable (e.g. first-sight Known=false response).
	got, err := c.Do("sw1", "sw1|", func() ([]byte, bool, error) {
		return []byte("first-sight"), false, nil
	})
	if err != nil || string(got) != "first-sight" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	if _, ok := c.Probe("sw1|"); ok {
		t.Fatal("uncacheable fill was stored")
	}
	// Errors propagate and are not stored.
	wantErr := errors.New("boom")
	if _, err := c.Do("sw1", "sw1|", func() ([]byte, bool, error) { return nil, true, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Probe("sw1|"); ok {
		t.Fatal("failed fill was stored")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Do("a", "a", fillConst("1"))
	c.Do("b", "b", fillConst("2"))
	c.Probe("a") // a is now more recent than b
	c.Do("d", "d", fillConst("3"))
	if _, ok := c.Probe("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Probe("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Probe("k"); ok {
		t.Fatal("nil cache hit")
	}
	got, err := c.Do("o", "k", fillConst("x"))
	if err != nil || string(got) != "x" {
		t.Fatalf("nil Do = %q, %v", got, err)
	}
	c.Invalidate("o")
	c.InvalidateAll()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}

// TestSingleflightStampede hammers one cold key from many goroutines:
// exactly one fill must run, every caller must get its bytes, and the
// run must be clean under -race.
func TestSingleflightStampede(t *testing.T) {
	c := New(64)
	var fills atomic.Int64
	const goroutines = 64
	var wg sync.WaitGroup
	results := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	release := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do("hot", "hot|", func() ([]byte, bool, error) {
				fills.Add(1)
				// Hold the fill open until every other goroutine has
				// collapsed onto this flight, so the stampede is real
				// rather than a sequence of cache hits.
				<-release
				return []byte("hot-report"), true, nil
			})
		}(i)
	}
	// Collapsed is incremented before a caller parks on the flight, so
	// polling it tells us all 63 late arrivals are inside Do.
	for c.Stats().Collapsed < goroutines-1 {
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil || !bytes.Equal(results[i], []byte("hot-report")) {
			t.Fatalf("caller %d got %q, %v", i, results[i], errs[i])
		}
	}
	st := c.Stats()
	if st.Collapsed != goroutines-1 {
		t.Fatalf("Collapsed = %d, want %d", st.Collapsed, goroutines-1)
	}
}

// TestConcurrentMixedWorkload races fills, hits, and invalidations
// across many owners; correctness here is "no data race, no deadlock,
// and every returned value is one some fill produced".
func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				owner := fmt.Sprintf("sw%d", i%16)
				key := owner + "|"
				switch i % 5 {
				case 4:
					c.Invalidate(owner)
				default:
					got, err := c.Do(owner, key, fillConst("report:"+owner))
					if err != nil || string(got) != "report:"+owner {
						t.Errorf("Do(%s) = %q, %v", key, got, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHitRatio(t *testing.T) {
	c := New(8)
	c.Do("a", "a", fillConst("1"))                                                // miss
	c.Probe("a")                                                                  // hit
	c.ProbeBytes([]byte("a"))                                                     // hit
	c.Do("nope", "nope", func() ([]byte, bool, error) { return nil, false, nil }) // miss
	if got := c.Stats().HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("empty HitRatio should be 0")
	}
}

// TestPanickingFillReleasesItsKey: a fill that panics must take its
// flight with it. The parent commit left the flight in the map with its
// WaitGroup at one, so every later lookup of the key parked for ever.
func TestPanickingFillReleasesItsKey(t *testing.T) {
	c := New(8)
	entered, release := make(chan struct{}), make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-entered
		for c.Stats().Collapsed == 0 { // until the waiter below is parked on the flight
		}
		close(release)
	}()
	go func() {
		<-entered
		_, err := c.Do("sw1", "sw1|", fillConst("never"))
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the fill's panic did not reach Do's caller")
			}
		}()
		c.Do("sw1", "sw1|", func() ([]byte, bool, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	// The waiter is either the one that collapsed onto the panicking
	// flight (an error) or, had it lost the race, a fill of its own.
	deadline := time.After(time.Second)
	select {
	case err := <-waiter:
		if err == nil {
			t.Error("a waiter on a panicked fill got no error")
		}
	case <-deadline:
		t.Fatal("a waiter on a panicked fill is still parked after 1 s")
	}
	again := make(chan string, 1)
	go func() {
		got, _ := c.Do("sw1", "sw1|", fillConst("rebuilt"))
		again <- string(got)
	}()
	select {
	case got := <-again:
		if got != "rebuilt" {
			t.Errorf("lookup after the panic = %q, want a fresh fill", got)
		}
	case <-deadline:
		t.Fatal("the key of a panicked fill is wedged: its next lookup is still parked after 1 s")
	}
	if st := c.Stats(); st.Stored != 1 || st.Entries != 1 {
		t.Errorf("after panic and refill: %+v, want one stored entry", st)
	}
}

// TestInvariantsAgainstModel drives random Do / Probe / Invalidate /
// InvalidateAll sequences on a cache small enough to evict all the time
// and, after every step, compares the whole structure with a naive
// model: which keys are cached with which bytes, the LRU order, every
// owner's chain, and Stats().Entries.
func TestInvariantsAgainstModel(t *testing.T) {
	type modelEntry struct{ key, owner, data string }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 5
		c := New(capacity)
		var model []modelEntry // most recently used first
		find := func(key string) int {
			return slices.IndexFunc(model, func(e modelEntry) bool { return e.key == key })
		}
		touch := func(i int) {
			e := model[i]
			model = slices.Insert(slices.Delete(model, i, i+1), 0, e)
		}
		for step := 0; step < 400; step++ {
			owner := fmt.Sprintf("sw%d", rng.Intn(4))
			key := fmt.Sprintf("%s|%d", owner, rng.Intn(3))
			switch op := rng.Intn(10); {
			case op < 5:
				data := fmt.Sprintf("%s@%d", key, step)
				cacheable := rng.Intn(8) != 0
				got, err := c.Do(owner, key, func() ([]byte, bool, error) { return []byte(data), cacheable, nil })
				if i := find(key); i >= 0 {
					data = model[i].data
					touch(i)
				} else if cacheable {
					model = slices.Insert(model, 0, modelEntry{key, owner, data})
					model = model[:min(len(model), capacity)]
				}
				if err != nil || string(got) != data {
					t.Fatalf("seed %d step %d: Do(%s) = %q, %v; want %q", seed, step, key, got, err, data)
				}
			case op < 8:
				got, ok := c.ProbeBytes([]byte(key))
				i := find(key)
				if ok != (i >= 0) || ok && string(got) != model[i].data {
					t.Fatalf("seed %d step %d: Probe(%s) = %q, %v; model index %d", seed, step, key, got, ok, i)
				}
				if ok {
					touch(i)
				}
			case op < 9 || step%50 != 0:
				c.Invalidate(owner)
				model = slices.DeleteFunc(model, func(e modelEntry) bool { return e.owner == owner })
			default:
				c.InvalidateAll()
				model = nil
			}
			checkAgainstModel(t, c, len(model), func(i int) (key, owner, data string) {
				return model[i].key, model[i].owner, model[i].data
			})
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
	}
}

// checkAgainstModel compares c with n model entries, most recently used
// first.
func checkAgainstModel(t *testing.T, c *Cache, n int, at func(i int) (key, owner, data string)) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != n {
		t.Errorf("%d entries, model has %d", len(c.entries), n)
	}
	chains := map[uint64][]string{} // owner hash -> the model's keys
	e := c.lru.next
	for i := 0; i < n; i, e = i+1, e.next {
		key, owner, data := at(i)
		if e == &c.lru {
			t.Errorf("LRU ring ends after %d entries, model has %d", i, n)
			return
		}
		if e.key != key || string(e.data) != data || c.entries[key] != e || e.next.prev != e {
			t.Errorf("LRU position %d holds %q = %q, model %q = %q (or the map or the ring disagrees)", i, e.key, e.data, key, data)
		}
		o := maphash.String(c.seed, owner)
		if e.owner != o {
			t.Errorf("%q has the wrong owner", key)
		}
		chains[o] = append(chains[o], key)
	}
	if e != &c.lru {
		t.Errorf("LRU ring is longer than the model's %d entries", n)
	}
	if len(c.owners) != len(chains) {
		t.Errorf("%d owner chains, model has %d owners", len(c.owners), len(chains))
	}
	for o, keys := range chains {
		var got []string
		var prev *entry
		for e := c.owners[o]; e != nil; prev, e = e, e.peerNext {
			if e.peerPrev != prev {
				t.Errorf("owner chain of %q: broken back link at %q", keys[0], e.key)
			}
			got = append(got, e.key)
		}
		slices.Sort(got)
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			t.Errorf("owner chain holds %v, model %v", got, keys)
		}
	}
}

// TestDoMissAllocPin pins what the cache itself costs a miss on a full
// cache, the daemon's steady state on the long tail: the flight and the
// entry (the key string is the caller's). Parent commit: 6, a
// list.Element, a one-key map with its first bucket and the owner string
// on top. Invalidating a cached owner allocates nothing (parent: the
// owner string, one).
func TestDoMissAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 200
	c := New(64)
	data := []byte("report")
	fill := func() ([]byte, bool, error) { return data, true, nil }
	var id [20]byte
	keys := make([]string, 64+2*(runs+1))
	for i := range keys {
		keys[i] = fmt.Sprintf("b\x00key-%d", i)
	}
	next := 0
	do := func() {
		id[0], id[1] = byte(next), byte(next>>8)
		if _, err := c.Do(string(id[:]), keys[next], fill); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 64 {
		do()
	}
	got := testing.AllocsPerRun(runs, do)
	t.Logf("miss + store + evict: %.0f allocs (pin 2)", got)
	if got > 2 {
		t.Errorf("miss + store + evict: %.0f allocs, pinned at 2", got)
	}
	if st := c.Stats(); st.Entries != 64 || st.Evicted == 0 {
		t.Fatalf("the cache was not evicting: %+v", st)
	}
	got = testing.AllocsPerRun(runs, func() {
		do()
		c.Invalidate(string(id[:]))
	})
	if got > 2 {
		t.Errorf("miss, then Invalidate of its owner: %.0f allocs, pinned at the miss's 2 and none for Invalidate", got)
	}
}
