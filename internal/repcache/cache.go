// Package repcache is the server's report cache: a size-bounded,
// versioned LRU of pre-encoded lookup responses, keyed by software
// identity plus the requesting client's feed subscription set.
//
// The cache exists because the client freezes program execution on the
// reputation lookup (§3.1), making lookup latency the system's
// user-visible cost, while the data behind a report changes rarely —
// scores move once per 24-hour aggregation period and comments arrive
// at human speed. Three properties keep it correct under that load:
//
//   - entries are owned by a software ID; any write that could change a
//     report invalidates every entry for the owner, whatever feed set
//     the entry was built for;
//   - fills are generation-versioned: an invalidation that lands while
//     a report is being rebuilt prevents the stale bytes from being
//     stored, so a cache hit never precedes the write it missed;
//   - concurrent misses on one key collapse into a single build
//     (singleflight), so a stampede of identical lookups costs one
//     report construction.
package repcache

import (
	"errors"
	"hash/maphash"
	"strconv"
	"sync"
)

// Wire-format key namespaces. One report has two encodings — the XML
// document and the binary frame — and the cache stores them as sibling
// entries under the same owner, so a binary cache hit skips the encode
// exactly like an XML hit, and one invalidation drops both. Keys from
// different formats must never collide, hence the prefix.
const (
	FormatXML    = "x\x00"
	FormatBinary = "b\x00"
)

// FormatKey namespaces key under a wire-format prefix.
func FormatKey(format, key string) string { return format + key }

// DefaultEntries is the cache capacity selected by a zero configuration:
// enough to hold the whole working set at the paper's deployment scale
// ("well over 2000 rated software programs") with room for per-feed-set
// variants of the hot entries.
const DefaultEntries = 4096

// maxOwnerGenerations bounds the per-owner invalidation-generation map.
// When it overflows, the floor rises to the current generation and the
// map is cleared — conservatively treating every owner as just
// invalidated, which can only cause extra rebuilds, never staleness.
const maxOwnerGenerations = 1 << 16

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count lookups: a Probe that finds nothing is
	// counted by the Do that follows it.
	Hits, Misses uint64
	// Stored counts fills whose result was accepted into the cache.
	Stored uint64
	// Rejected counts fills discarded because their owner was
	// invalidated while the report was being built.
	Rejected uint64
	// Collapsed counts callers that piggy-backed on another goroutine's
	// in-flight fill instead of building the report themselves.
	Collapsed uint64
	// Invalidations counts Invalidate and InvalidateAll calls.
	Invalidations uint64
	// Evicted counts entries pushed out by the capacity bound (LRU
	// tail drops; invalidations are counted separately).
	Evicted uint64
	// Entries is the current number of cached reports.
	Entries int
}

// entry is one report: its fill's flight, which concurrent misses wait
// on, then, if stored, the cached report, in the LRU ring (prev and next,
// around Cache.lru) and its owner's chain (peerPrev and peerNext, from
// Cache.owners: the head has no peerPrev). key and data are one buffer,
// made when the fill returns: a waiter knows the fill by its hash alone.
type entry struct {
	hash, owner        uint64
	key, data          []byte
	prev, next         *entry
	peerPrev, peerNext *entry
	gen                uint64 // the owner's generation the fill began at
	wg                 sync.WaitGroup
	err                error
	lengthOnce         sync.Once
	length             [1]string // len(data) as an HTTP header value, once asked for
}

// Report is a report's bytes, shared: no caller may write to them.
type Report struct {
	Data []byte
	e    *entry // holds Data; nil for a nil cache's fill
}

// ContentLength is len(r.Data) as an HTTP header value, rendered once an
// entry, the first time it is asked for, or nil for bytes no entry holds.
func (r Report) ContentLength() []string {
	if r.e == nil {
		return nil
	}
	r.e.lengthOnce.Do(func() { r.e.length[0] = strconv.Itoa(len(r.Data)) })
	return r.e.length[:]
}

// Cache is the report cache. It is safe for concurrent use. A nil
// *Cache is a valid, always-miss cache, so callers need no nil checks.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*entry // by key hash
	lru     entry             // ring sentinel: lru.next is the most recently used entry, lru.prev the least

	// Keys and owners are known by their hashes, which no call has to
	// allocate. Owners that collide share a chain and a generation: one's
	// invalidation drops the other's entries too, a rebuild, never stale.
	// Keys that collide have one entry at a time. narrow is the bits a test
	// clears from key hashes (a hash function would make keys escape).
	seed   maphash.Seed
	narrow uint64
	owners map[uint64]*entry

	// gen advances on every invalidation; ownerGen[o] records the
	// generation at which owner o was last invalidated, with floor as
	// the conservative lower bound after pruning or InvalidateAll.
	gen      uint64
	floor    uint64
	ownerGen map[uint64]uint64

	flights map[uint64]*entry // by key hash: the newest fill

	hits, misses, stored, rejected, collapsed, invalidations, evicted uint64
}

// New creates a cache holding at most capacity entries; capacity <= 0
// selects DefaultEntries.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	c := &Cache{
		cap:      capacity,
		seed:     maphash.MakeSeed(),
		ownerGen: make(map[uint64]uint64),
		flights:  make(map[uint64]*entry),
	}
	c.resetLocked()
	return c
}

// resetLocked empties the cache. Caller holds mu (or is New).
func (c *Cache) resetLocked() {
	c.entries = make(map[uint64]*entry)
	c.owners = make(map[uint64]*entry)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
}

// hitLocked counts the entry of key, hashed to h, if stored, as a hit and
// as the most recently used. Caller holds mu.
func (c *Cache) hitLocked(h uint64, key []byte) (Report, bool) {
	e := c.entries[h]
	if e == nil || string(e.key) != string(key) {
		return Report{}, false
	}
	c.hits++
	e.prev.next, e.next.prev = e.next, e.prev
	c.pushFrontLocked(e)
	return Report{e.data, e}, true
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// ProbeBytes returns the cached report for key, if present. A hit is
// counted, a miss is not: that is left to the DoBytes that follows, so a
// request probing under one key and filling under another still counts
// exactly one hit or one miss.
func (c *Cache) ProbeBytes(key []byte) (Report, bool) {
	if c == nil {
		return Report{}, false
	}
	h := maphash.Bytes(c.seed, key) &^ c.narrow
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitLocked(h, key)
}

// Probe is ProbeBytes for a key held as a string.
func (c *Cache) Probe(key string) (Report, bool) { return c.ProbeBytes([]byte(key)) }

// errFillPanicked is what the waiters of a fill that panicked get.
var errFillPanicked = errors.New("repcache: fill panicked")

// DoBytes returns the report for key, building it with fill on a miss.
// Concurrent calls for one key collapse into one fill, unless the owner
// was invalidated since it began; every caller receives its fill's
// result, cached only when fill reports it cacheable and the owner was
// not invalidated while it ran. The entry copies fill's bytes, so they
// may be scratch. A fill that panics stores nothing, fails its waiters
// and panics on. On a nil *Cache, fill runs directly.
func (c *Cache) DoBytes(owner string, key []byte, fill func() ([]byte, bool, error)) (r Report, err error) {
	if c == nil {
		r.Data, _, err = fill()
		return r, err
	}
	h, o := maphash.Bytes(c.seed, key)&^c.narrow, maphash.String(c.seed, owner)
	c.mu.Lock()
	if r, ok := c.hitLocked(h, key); ok {
		c.mu.Unlock()
		return r, nil
	}
	c.misses++
	gen := c.invalGenLocked(o)
	if f := c.flights[h]; f != nil && f.gen == gen {
		c.collapsed++
		c.mu.Unlock()
		if f.wg.Wait(); string(f.key) == string(key) {
			return Report{f.data, f}, f.err
		}
		c.mu.Lock() // a colliding key's fill: this caller fills for itself
		c.collapsed--
		gen = c.invalGenLocked(o)
	}
	e := &entry{hash: h, owner: o, gen: gen, err: errFillPanicked}
	e.wg.Add(1)
	c.flights[h] = e
	c.mu.Unlock()

	// Deferred: a panicking fill must leave no flight to wait on for ever.
	cacheable := false
	defer func() {
		buf := append(append(make([]byte, 0, len(key)+len(r.Data)), key...), r.Data...)
		c.mu.Lock()
		e.key, e.data = buf[:len(key):len(key)], buf[len(key):]
		if c.flights[h] == e {
			delete(c.flights, h)
		}
		if e.err == nil && cacheable {
			if c.invalGenLocked(o) == e.gen {
				c.storeLocked(e)
				c.stored++
			} else {
				c.rejected++
			}
		}
		c.mu.Unlock()
		e.wg.Done()
		r = Report{e.data, e}
	}()
	r.Data, cacheable, e.err = fill()
	return r, e.err
}

// Do is DoBytes for a key held as a string.
func (c *Cache) Do(owner, key string, fill func() ([]byte, bool, error)) (Report, error) {
	return c.DoBytes(owner, []byte(key), fill)
}

// invalGenLocked returns the generation at which owner was last
// invalidated (the floor when unknown). Caller holds mu.
func (c *Cache) invalGenLocked(owner uint64) uint64 {
	if g, ok := c.ownerGen[owner]; ok {
		return g
	}
	return c.floor
}

// storeLocked inserts e in place of any entry under its hash, evicting
// the LRU tail beyond capacity. Caller holds mu.
func (c *Cache) storeLocked(e *entry) {
	if old := c.entries[e.hash]; old != nil {
		c.removeLocked(old)
	}
	e.peerNext = c.owners[e.owner]
	if e.peerNext != nil {
		e.peerNext.peerPrev = e
	}
	c.owners[e.owner] = e
	c.entries[e.hash] = e
	c.pushFrontLocked(e)
	for len(c.entries) > c.cap {
		c.evicted++
		c.removeLocked(c.lru.prev)
	}
}

// removeLocked takes e out of the map, the ring and its owner's chain.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.hash)
	e.prev.next, e.next.prev = e.next, e.prev
	if e.peerNext != nil {
		e.peerNext.peerPrev = e.peerPrev
	}
	switch {
	case e.peerPrev != nil:
		e.peerPrev.peerNext = e.peerNext
	case e.peerNext != nil:
		c.owners[e.owner] = e.peerNext
	default:
		delete(c.owners, e.owner)
	}
}

// Invalidate drops every entry owned by owner and marks the owner so
// that in-flight fills started before this call will not be stored.
func (c *Cache) Invalidate(owner string) {
	if c == nil {
		return
	}
	o := maphash.String(c.seed, owner)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations++
	c.gen++
	if len(c.ownerGen) >= maxOwnerGenerations {
		c.floor = c.gen
		clear(c.ownerGen)
	}
	c.ownerGen[o] = c.gen
	for e := c.owners[o]; e != nil; e = c.owners[o] {
		c.removeLocked(e)
	}
}

// InvalidateAll drops every entry and marks every owner (present and
// future fills started before this call) invalid — the bulk hook for
// aggregation publishes and snapshot restores.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations++
	c.gen++
	c.floor = c.gen
	clear(c.ownerGen)
	c.resetLocked()
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Stored:        c.stored,
		Rejected:      c.rejected,
		Collapsed:     c.collapsed,
		Invalidations: c.invalidations,
		Evicted:       c.evicted,
		Entries:       len(c.entries),
	}
}
