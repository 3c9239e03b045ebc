package serve

import (
	"container/list"
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

// Key hashes canonical request material into a content address: the
// raw 32-byte SHA-256 digest, held as a string.
func Key(parts ...string) string {
	size := len(parts)
	for _, p := range parts {
		size += len(p)
	}
	return keyOf(appendKeyParts(make([]byte, 0, size), parts...))
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
func keyOf(framed []byte) string {
	sum := sha256.Sum256(framed)
	return string(sum[:])
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

// entry is one stored response.
type entry struct {
	key  string
	body []byte
}

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map bucket share, entry struct) charged against the budget.
const entryOverhead = 128

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
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	flights  map[string]*flight

	hits, misses, shared, evictions int64
}

func newCache(capacity int64) *cache {
	return &cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		flights:  make(map[string]*flight),
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
func (c *cache) do(ctx context.Context, key string, fill func() (body []byte, cacheable bool, err error)) ([]byte, cacheSource, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		body := el.Value.(*entry).body
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
func (c *cache) store(key string, body []byte) {
	cost := int64(len(key)+len(body)) + entryOverhead
	if cost > c.capacity {
		return
	}
	if el, ok := c.items[key]; ok { // lost a race with an identical fill
		c.ll.MoveToFront(el)
		return
	}
	for c.bytes+cost > c.capacity {
		back := c.ll.Back()
		if back == nil {
			return
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, ev.key)
		c.bytes -= int64(len(ev.key)+len(ev.body)) + entryOverhead
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, body: body})
	c.bytes += cost
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
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
}
