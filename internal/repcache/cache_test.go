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

// do and probe are DoBytes and ProbeBytes on a key written as a string,
// returning the report's bytes.
func do(c *Cache, owner, key string, fill func() ([]byte, bool, error)) ([]byte, error) {
	r, err := c.DoBytes(owner, []byte(key), fill)
	return r.Data, err
}

func probe(c *Cache, key string) ([]byte, bool) {
	r, ok := c.ProbeBytes([]byte(key))
	return r.Data, ok
}

func TestHitAfterDo(t *testing.T) {
	c := New(8)
	got, err := do(c, "sw1", "sw1|", fillConst("report-1"))
	if err != nil || string(got) != "report-1" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	cached, ok := probe(c, "sw1|")
	if !ok || string(cached) != "report-1" {
		t.Fatalf("Probe after Do = %q, %v", cached, ok)
	}
	calls := 0
	got, err = do(c, "sw1", "sw1|", func() ([]byte, bool, error) {
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
	do(c, "sw1", "sw1|", fillConst("a"))
	do(c, "sw1", "sw1|fast", fillConst("b"))
	do(c, "sw2", "sw2|", fillConst("c"))

	c.Invalidate("sw1")
	if _, ok := probe(c, "sw1|"); ok {
		t.Fatal("sw1| survived Invalidate(sw1)")
	}
	if _, ok := probe(c, "sw1|fast"); ok {
		t.Fatal("sw1|fast survived Invalidate(sw1)")
	}
	if got, ok := probe(c, "sw2|"); !ok || string(got) != "c" {
		t.Fatalf("sw2| = %q, %v; want c, true", got, ok)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(8)
	do(c, "sw1", "sw1|", fillConst("a"))
	do(c, "sw2", "sw2|", fillConst("b"))
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
		do(c, "sw1", "sw1|", func() ([]byte, bool, error) {
			close(started)
			<-release
			return []byte("stale"), true, nil
		})
	}()
	<-started
	c.Invalidate("sw1") // the write lands mid-fill
	close(release)
	<-done
	if _, ok := probe(c, "sw1|"); ok {
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
		got, _ := do(c, "sw1", "sw1|", func() ([]byte, bool, error) {
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
		got, _ := do(c, "sw1", "sw1|", fillConst("fresh"))
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
	if cached, ok := probe(c, "sw1|"); !ok || string(cached) != "fresh" {
		t.Fatalf("cached = %q, %v; want the newer fill's bytes", cached, ok)
	}
	if st := c.Stats(); st.Stored != 1 || st.Rejected != 1 || st.Collapsed != 0 {
		t.Fatalf("stats = %+v, want one stored, one rejected, none collapsed", st)
	}
}

func TestUncacheableAndErrorFills(t *testing.T) {
	c := New(8)
	// Not cacheable (e.g. first-sight Known=false response).
	got, err := do(c, "sw1", "sw1|", func() ([]byte, bool, error) {
		return []byte("first-sight"), false, nil
	})
	if err != nil || string(got) != "first-sight" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	if _, ok := probe(c, "sw1|"); ok {
		t.Fatal("uncacheable fill was stored")
	}
	// Errors propagate and are not stored.
	wantErr := errors.New("boom")
	if _, err := do(c, "sw1", "sw1|", func() ([]byte, bool, error) { return nil, true, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := probe(c, "sw1|"); ok {
		t.Fatal("failed fill was stored")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	do(c, "a", "a", fillConst("1"))
	do(c, "b", "b", fillConst("2"))
	probe(c, "a") // a is now more recent than b
	do(c, "d", "d", fillConst("3"))
	if _, ok := probe(c, "b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := probe(c, "a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := probe(c, "k"); ok {
		t.Fatal("nil cache hit")
	}
	got, err := do(c, "o", "k", fillConst("x"))
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
			results[i], errs[i] = do(c, "hot", "hot|", func() ([]byte, bool, error) {
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
					got, err := do(c, owner, key, fillConst("report:"+owner))
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
	do(c, "a", "a", fillConst("1"))                                                // miss
	probe(c, "a")                                                                  // hit
	c.Probe("a")                                                                   // hit
	do(c, "nope", "nope", func() ([]byte, bool, error) { return nil, false, nil }) // miss
	if st := c.Stats(); float64(st.Hits)/float64(st.Hits+st.Misses) != 0.5 {
		t.Fatalf("hits %d, misses %d: hit ratio want 0.5", st.Hits, st.Misses)
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
		_, err := do(c, "sw1", "sw1|", fillConst("never"))
		waiter <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the fill's panic did not reach Do's caller")
			}
		}()
		do(c, "sw1", "sw1|", func() ([]byte, bool, error) {
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
		got, _ := do(c, "sw1", "sw1|", fillConst("rebuilt"))
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

// TestCollidingKeysNeverShareAReport puts every key on one hash: a report
// is still only ever its own key's, whether it is probed, waited for,
// stored over another key's or invalidated.
func TestCollidingKeysNeverShareAReport(t *testing.T) {
	colliding := func() *Cache {
		c := New(8)
		c.narrow = ^uint64(0)
		return c
	}
	// blocked starts a fill of key that returns data once release closes,
	// or panics when data is empty; its result arrives on the channel.
	blocked := func(c *Cache, owner, key, data string, release chan struct{}) (<-chan []byte, <-chan struct{}) {
		got, entered := make(chan []byte, 1), make(chan struct{})
		go func() {
			defer func() { _ = recover() }()
			r, _ := do(c, owner, key, func() ([]byte, bool, error) {
				close(entered)
				<-release
				if data == "" {
					panic("boom")
				}
				return []byte(data), true, nil
			})
			got <- r
		}()
		return got, entered
	}

	t.Run("probe", func(t *testing.T) {
		c := colliding()
		do(c, "sw1", "sw1|", fillConst("one"))
		if got, ok := probe(c, "sw2|"); ok {
			t.Fatalf("probe of sw2| = %q, sw1|'s report", got)
		}
		if got, ok := probe(c, "sw1|"); !ok || string(got) != "one" {
			t.Fatalf("probe of sw1| = %q, %v", got, ok)
		}
	})

	t.Run("store replaces the colliding entry", func(t *testing.T) {
		c := colliding()
		do(c, "sw1", "sw1|", fillConst("one"))
		if got, _ := do(c, "sw2", "sw2|", fillConst("two")); string(got) != "two" {
			t.Fatalf("Do of sw2| = %q", got)
		}
		if _, ok := probe(c, "sw1|"); ok {
			t.Fatal("sw1| survived the store of a key colliding with it")
		}
		if st := c.Stats(); st.Entries != 1 || st.Stored != 2 || st.Evicted != 0 {
			t.Fatalf("stats = %+v, want one entry of two stored, none evicted", st)
		}
		checkAgainstModel(t, c, 1, func(int) (string, string, string) { return "sw2|", "sw2", "two" })
	})

	t.Run("collapsed waiter", func(t *testing.T) {
		c := colliding()
		release := make(chan struct{})
		filled, entered := blocked(c, "sw1", "sw1|", "one", release)
		<-entered
		same, other := make(chan []byte, 1), make(chan []byte, 1)
		go func() { got, _ := do(c, "sw1", "sw1|", fillConst("never")); same <- got }()
		go func() { got, _ := do(c, "sw2", "sw2|", fillConst("two")); other <- got }()
		for c.Stats().Collapsed < 2 { // both parked on sw1|'s fill
		}
		close(release)
		if a, b, o := string(<-filled), string(<-same), string(<-other); a != "one" || b != "one" || o != "two" {
			t.Fatalf("the fill got %q, its waiter %q, the colliding waiter %q; want one, one, two", a, b, o)
		}
		if st := c.Stats(); st.Collapsed != 1 || st.Stored != 2 {
			t.Fatalf("stats = %+v, want one collapsed (the colliding waiter filled for itself), two stored", st)
		}
	})

	t.Run("panicking fill's waiters", func(t *testing.T) {
		c := colliding()
		release := make(chan struct{})
		_, entered := blocked(c, "sw1", "sw1|", "", release)
		<-entered
		same, other := make(chan error, 1), make(chan []byte, 1)
		go func() { _, err := do(c, "sw1", "sw1|", fillConst("never")); same <- err }()
		go func() { got, _ := do(c, "sw2", "sw2|", fillConst("two")); other <- got }()
		for c.Stats().Collapsed < 2 {
		}
		close(release)
		if err := <-same; err != errFillPanicked {
			t.Fatalf("a waiter on the panicked fill got %v, want errFillPanicked", err)
		}
		if got := <-other; string(got) != "two" {
			t.Fatalf("the colliding waiter got %q, want its own fill", got)
		}
	})

	t.Run("invalidate one owner", func(t *testing.T) {
		c := colliding()
		do(c, "sw1", "sw1|", fillConst("one"))
		c.Invalidate("sw2")
		if got, ok := probe(c, "sw1|"); !ok || string(got) != "one" {
			t.Fatalf("sw1| after Invalidate(sw2) = %q, %v", got, ok)
		}
		c.Invalidate("sw1")
		if _, ok := probe(c, "sw1|"); ok {
			t.Fatal("sw1| survived Invalidate(sw1)")
		}
		// Generations are the owner's, not the hash's: a fill racing
		// another owner's invalidation is stored, one racing its own is not.
		for _, inval := range []string{"sw1", "sw2"} {
			release := make(chan struct{})
			filled, entered := blocked(c, "sw2", "sw2|", "two", release)
			<-entered
			c.Invalidate(inval)
			close(release)
			<-filled
			if _, ok := probe(c, "sw2|"); ok != (inval == "sw1") {
				t.Fatalf("fill racing Invalidate(%s): stored %v", inval, ok)
			}
			c.InvalidateAll()
		}
	})
}

// TestInvariantsAgainstModel drives random Do / Probe / Invalidate /
// InvalidateAll sequences on a cache small enough to evict all the time
// and, after every step, compares the whole structure with a naive
// model: which keys are cached with which bytes, the LRU order, every
// owner's chain, and Stats().Entries.
func TestInvariantsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &cacheModel{c: New(5)}
		for step := 0; step < 400; step++ {
			owner := fmt.Sprintf("sw%d", rng.Intn(4))
			key := fmt.Sprintf("%s|%d", owner, rng.Intn(3))
			op := opProbe
			switch n := rng.Intn(10); {
			case n < 5:
				op = opFill
				if rng.Intn(8) == 0 {
					op = opUncacheable
				}
			case n < 8:
			case n < 9 || step%50 != 0:
				op = opInvalidate
			default:
				op = opInvalidateAll
			}
			m.apply(t, step, op, owner, key)
			if t.Failed() {
				t.Fatalf("seed %d step %d", seed, step)
			}
		}
	}
}

// FuzzCache is TestInvariantsAgainstModel with the operations drawn from
// the input, two bytes each, failing fills among them, on a cache whose
// key hash has 4 bits: most keys collide, so a probe, a waiter or a store
// that let one key's report stand for another's shows up in the model.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 3, 0, 3, 8, 1, 16, 2, 16, 4, 0, 5, 0})
	f.Add([]byte{0, 1, 0, 9, 0, 17, 0, 25, 0, 33, 0, 41, 3, 1, 3, 9, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := &cacheModel{c: New(5)}
		m.c.narrow = ^uint64(0xF)
		for i := 0; i+1 < len(ops); i += 2 {
			owner := fmt.Sprintf("sw%d", ops[i+1]&7)
			key := fmt.Sprintf("%s|%d", owner, ops[i+1]>>3&3)
			m.apply(t, i, modelOp(ops[i])%opCount, owner, key)
			if t.Failed() {
				t.Fatalf("op %d", i/2)
			}
		}
	})
}

type modelOp byte

const (
	opFill        modelOp = iota // Do with a cacheable fill
	opUncacheable                // Do with a fill that is not cacheable
	opFailing                    // Do with a fill that fails
	opProbe
	opInvalidate
	opInvalidateAll
	opCount
)

var errFill = errors.New("fill failed")

// cacheModel is a cache beside a naive model of it: which keys are cached
// with which bytes, most recently used first. One entry a key hash: a
// store drops the entry of any key its key collides with.
type cacheModel struct {
	c       *Cache
	entries []modelEntry
}

type modelEntry struct{ key, owner, data string }

func (m *cacheModel) find(key string) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.key == key })
}

func (m *cacheModel) touch(i int) {
	e := m.entries[i]
	m.entries = slices.Insert(slices.Delete(m.entries, i, i+1), 0, e)
}

// apply runs op on key (of owner) against the cache and the model, checks
// what the cache answered, then the whole structure (checkAgainstModel).
func (m *cacheModel) apply(t *testing.T, step int, op modelOp, owner, key string) {
	t.Helper()
	switch op {
	case opFill, opUncacheable, opFailing:
		data, want := fmt.Sprintf("%s@%d", key, step), error(nil)
		if op == opFailing {
			want = errFill
		}
		got, err := do(m.c, owner, key, func() ([]byte, bool, error) { return []byte(data), op == opFill, want })
		if i := m.find(key); i >= 0 {
			data, want = m.entries[i].data, nil
			m.touch(i)
		} else if op == opFill {
			h := maphash.String(m.c.seed, key) &^ m.c.narrow
			m.entries = slices.DeleteFunc(m.entries, func(e modelEntry) bool {
				return maphash.String(m.c.seed, e.key)&^m.c.narrow == h
			})
			m.entries = slices.Insert(m.entries, 0, modelEntry{key, owner, data})
			m.entries = m.entries[:min(len(m.entries), m.c.cap)]
		}
		if err != want || want == nil && string(got) != data {
			t.Errorf("step %d: Do(%s) = %q, %v; want %q, %v", step, key, got, err, data, want)
		}
	case opProbe:
		got, ok := probe(m.c, key)
		i := m.find(key)
		if ok != (i >= 0) || ok && string(got) != m.entries[i].data {
			t.Errorf("step %d: Probe(%s) = %q, %v; model index %d", step, key, got, ok, i)
		}
		if ok {
			m.touch(i)
		}
	case opInvalidate:
		m.c.Invalidate(owner)
		m.entries = slices.DeleteFunc(m.entries, func(e modelEntry) bool { return e.owner == owner })
	case opInvalidateAll:
		m.c.InvalidateAll()
		m.entries = nil
	}
	checkAgainstModel(t, m.c, len(m.entries), func(i int) (key, owner, data string) {
		return m.entries[i].key, m.entries[i].owner, m.entries[i].data
	})
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
		h := maphash.String(c.seed, key) &^ c.narrow
		if string(e.key) != key || string(e.data) != data || e.hash != h || c.entries[h] != e || e.next.prev != e {
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
			got = append(got, string(e.key))
		}
		slices.Sort(got)
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			t.Errorf("owner chain holds %v, model %v", got, keys)
		}
	}
}

// TestDoMissAllocPin pins what the cache itself costs a miss on a full
// cache, the daemon's steady state on the long tail: the entry, which is
// the fill's flight too, and the one buffer it keeps the key and the
// report in. Parent commit: 2, a flight and an entry, and the caller made
// the key string the entry kept and the copy of the report; before that
// 6, a list.Element, a one-key map with its first bucket and the owner
// string on top. Invalidating a cached owner allocates nothing (parent:
// the owner string, one).
func TestDoMissAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 200
	c := New(64)
	data := []byte("report")
	fill := func() ([]byte, bool, error) { return data, true, nil }
	var id [20]byte
	keys := make([][]byte, 64+2*(runs+1))
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "b\x00key-%d", i)
	}
	next := 0
	miss := func() {
		id[0], id[1] = byte(next), byte(next>>8)
		if _, err := c.DoBytes(string(id[:]), keys[next], fill); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 64 {
		miss()
	}
	got := testing.AllocsPerRun(runs, miss)
	t.Logf("miss + store + evict: %.0f allocs (pin 2)", got)
	if got > 2 {
		t.Errorf("miss + store + evict: %.0f allocs, pinned at 2", got)
	}
	if st := c.Stats(); st.Entries != 64 || st.Evicted == 0 {
		t.Fatalf("the cache was not evicting: %+v", st)
	}
	got = testing.AllocsPerRun(runs, func() {
		miss()
		c.Invalidate(string(id[:]))
	})
	if got > 2 {
		t.Errorf("miss, then Invalidate of its owner: %.0f allocs, pinned at the miss's 2 and none for Invalidate", got)
	}
}
