package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync"
)

// The verdict cache: a content-addressed map from canonical request
// keys to marshaled response bodies, with two serving-stack behaviors
// layered on top:
//
//   - Singleflight collapsing: concurrent requests for the same key
//     share one in-flight computation. Only the flight owner passes
//     through admission control and runs the backtracker; waiters block
//     on the flight and reuse its bytes.
//   - LRU eviction under a byte budget: entries are charged for their
//     key and body, and the least-recently-used entries are dropped
//     when an insert would exceed the budget. A zero budget disables
//     storage but keeps the singleflight collapsing.
//
// Only definitive responses are stored (the caller signals
// cacheability): an INCONCLUSIVE verdict depends on the request's
// budgets and wall clock, so replaying it from cache could mask a
// answer a larger budget would find.
//
// A full cache is most of the daemon's live heap, and the garbage
// collector marks the live heap on every cycle, so each stored verdict
// is one heap object, its body. The index maps the raw digest to a slot
// number, the slots hold the keys and the LRU links as slot numbers,
// and the bodies sit in a slice beside them: neither the index nor the
// slots hold a pointer, so the collector marks the bodies and skips
// the rest. A stored body is never written again, even after its
// eviction, since a handler may still be sending it.

// Key hashes canonical request material into a content address: the
// raw 32-byte SHA-256 digest, held as a string.
func Key(parts ...string) string {
	size := len(parts)
	for _, p := range parts {
		size += len(p)
	}
	key := keyOf(appendKeyParts(make([]byte, 0, size), parts...))
	return string(key[:])
}

// appendKeyParts appends parts to b as Key frames them: each followed
// by a zero byte, an unambiguous field separator.
func appendKeyParts(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(append(b, p...), 0)
	}
	return b
}

// keyOf is the content address of request material framed as
// appendKeyParts frames it.
func keyOf(framed []byte) [sha256.Size]byte {
	return sha256.Sum256(framed)
}

// cacheSource says how a response was obtained.
type cacheSource int

const (
	sourceMiss   cacheSource = iota // computed by this request
	sourceHit                       // served from the stored bytes
	sourceShared                    // reused a concurrent in-flight computation
)

func (s cacheSource) String() string {
	switch s {
	case sourceHit:
		return "hit"
	case sourceShared:
		return "shared"
	default:
		return "miss"
	}
}

// errFillPanicked is what collapsed waiters get when the flight
// owner's fill panicked: their exchanges complete with a 500 while the
// panic itself propagates to the recovery middleware on the owner's
// goroutine.
var errFillPanicked = errors.New("serve: decision panicked")

// flight is one in-progress fill shared by duplicate requests.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// slot is one stored entry's place in the recency order, a ring: its
// key and its neighbours' slots. Slot 0 holds no entry; it closes the
// ring, so its next is the most recently used slot and its prev the
// least. A free slot's next is the next free slot, or 0 after the last.
type slot struct {
	key        [sha256.Size]byte
	prev, next int32
}

// entryOverhead approximates what an entry costs beyond its key and
// body, charged against the budget with them: its index entry (a copy
// of the key and a slot number, with the map's spare room), its slot,
// its body's slice header and the allocator's rounding of the body,
// each with the slack of an array grown by doubling. The value
// predates this layout and is kept, so the same budget holds the same
// entries.
const entryOverhead = 128

// charge is what an entry with body costs against the budget.
func charge(body []byte) int64 {
	return int64(sha256.Size+len(body)) + entryOverhead
}

// CacheStats is the counter snapshot /statsz reports.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Shared    int64 `json:"shared"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity_bytes"`
}

// cache is the verdict cache. The zero value is unusable; use newCache.
type cache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	index    map[[sha256.Size]byte]int32 // key → slot
	slots    []slot
	bodies   [][]byte // bodies[i] is slot i's body, nil while i is free
	free     int32    // the first free slot, or 0
	flights  map[[sha256.Size]byte]*flight

	hits, misses, shared, evictions int64
}

func newCache(capacity int64) *cache {
	return &cache{
		capacity: capacity,
		index:    make(map[[sha256.Size]byte]int32),
		slots:    make([]slot, 1),
		bodies:   make([][]byte, 1),
		flights:  make(map[[sha256.Size]byte]*flight),
	}
}

// do returns the cached body for key, or runs fill to compute it,
// collapsing concurrent fills for the same key into one. fill reports
// whether its result may be stored; errors are never stored and are
// returned to every collapsed waiter.
//
// ctx bounds only the *wait* on a concurrent fill (a collapsed waiter
// whose exchange deadline expires walks away; the flight keeps
// computing for everyone else). The fill itself runs under the
// server's decision context, deliberately not ctx — see
// Server.decisionContext.
//
// do is panic-safe: if fill panics, the flight is failed and removed
// so collapsed waiters complete with errFillPanicked instead of
// hanging, and the panic continues up the owner's goroutine to the
// recovery middleware.
func (c *cache) do(ctx context.Context, key [sha256.Size]byte, fill func() (body []byte, cacheable bool, err error)) ([]byte, cacheSource, error) {
	c.mu.Lock()
	if i, ok := c.index[key]; ok {
		c.touch(i)
		c.hits++
		body := c.bodies[i]
		c.mu.Unlock()
		return body, sourceHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.shared++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.body, sourceShared, f.err
		case <-ctx.Done():
			return nil, sourceShared, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	completed := false
	defer func() {
		if completed {
			return
		}
		f.err = errFillPanicked
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	body, cacheable, err := fill()
	completed = true
	f.body, f.err = body, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && cacheable {
		c.store(key, body)
	}
	c.mu.Unlock()
	close(f.done)
	return body, sourceMiss, err
}

// store inserts under the byte budget, evicting LRU entries as needed.
// Bodies larger than the whole budget are not stored. Callers hold mu.
func (c *cache) store(key [sha256.Size]byte, body []byte) {
	cost := charge(body)
	if cost > c.capacity {
		return
	}
	if i, ok := c.index[key]; ok { // lost a race with an identical fill
		c.touch(i)
		return
	}
	// The stored charges sum to bytes, so the ring holds an entry while
	// bytes+cost exceeds a capacity of at least cost.
	for c.bytes+cost > c.capacity {
		i := c.slots[0].prev
		c.unlink(i)
		delete(c.index, c.slots[i].key)
		c.bytes -= charge(c.bodies[i])
		c.bodies[i] = nil
		c.slots[i].next, c.free = c.free, i
		c.evictions++
	}
	i := c.free
	if i == 0 {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
		c.bodies = append(c.bodies, nil)
	} else {
		c.free = c.slots[i].next
	}
	c.slots[i].key = key
	c.bodies[i] = body
	c.index[key] = i
	c.pushFront(i)
	c.bytes += cost
}

// touch makes slot i the most recently used.
func (c *cache) touch(i int32) {
	c.unlink(i)
	c.pushFront(i)
}

// unlink takes slot i out of the ring.
func (c *cache) unlink(i int32) {
	prev, next := c.slots[i].prev, c.slots[i].next
	c.slots[prev].next = next
	c.slots[next].prev = prev
}

// pushFront puts slot i into the ring as the most recently used.
func (c *cache) pushFront(i int32) {
	first := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, first
	c.slots[first].prev = i
	c.slots[0].next = i
}

// stats snapshots the counters.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Shared:    c.shared,
		Evictions: c.evictions,
		Entries:   len(c.index),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
