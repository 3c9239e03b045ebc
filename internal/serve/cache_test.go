package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testKey is the cache key of s, a digest as the handlers' keys are.
func testKey(s string) [sha256.Size]byte {
	return keyOf([]byte(s))
}

func fillWith(body string) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) { return []byte(body), true, nil }
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newCache(1 << 20)
	body, src, err := c.do(context.Background(), testKey("k"), fillWith("v"))
	if err != nil || src != sourceMiss || string(body) != "v" {
		t.Fatalf("first do = %q, %v, %v; want v, miss, nil", body, src, err)
	}
	calls := 0
	body, src, err = c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) { calls++; return nil, false, nil })
	if err != nil || src != sourceHit || string(body) != "v" || calls != 0 {
		t.Fatalf("second do = %q, %v, %v (fill calls %d); want cached v, hit, nil, 0", body, src, err, calls)
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheUncacheableNotStored(t *testing.T) {
	c := newCache(1 << 20)
	if _, _, err := c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) { return []byte("v"), false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, src, _ := c.do(context.Background(), testKey("k"), fillWith("w")); src != sourceMiss {
		t.Fatalf("uncacheable result was served from cache (%v)", src)
	}
}

func TestCacheErrorNotStoredAndPropagated(t *testing.T) {
	c := newCache(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) { return nil, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("error result was stored: %+v", st)
	}
}

// TestCacheLRUEviction: a byte budget that fits two entries must evict
// the least recently used third when a new one lands, and a hit must
// refresh recency.
func TestCacheLRUEviction(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 256)
	perEntry := int64(sha256.Size+len(body)) + entryOverhead
	c := newCache(2 * perEntry)
	fill := func() ([]byte, bool, error) { return body, true, nil }
	c.do(context.Background(), testKey("a"), fill)
	c.do(context.Background(), testKey("b"), fill)
	c.do(context.Background(), testKey("a"), fill) // hit: refresh a, so b is now LRU
	c.do(context.Background(), testKey("c"), fill) // evicts b
	if _, src, _ := c.do(context.Background(), testKey("a"), fill); src != sourceHit {
		t.Errorf("a evicted; want kept (refreshed)")
	}
	if _, src, _ := c.do(context.Background(), testKey("c"), fill); src != sourceHit {
		t.Errorf("c evicted; want kept (most recent)")
	}
	if _, src, _ := c.do(context.Background(), testKey("b"), fill); src != sourceMiss {
		t.Errorf("b kept; want evicted as LRU")
	}
	st := c.stats()
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if st.Bytes > 2*perEntry {
		t.Errorf("cache bytes %d exceed budget %d", st.Bytes, 2*perEntry)
	}
}

func TestCacheZeroCapacityDisablesStorage(t *testing.T) {
	c := newCache(0)
	c.do(context.Background(), testKey("k"), fillWith("v"))
	if _, src, _ := c.do(context.Background(), testKey("k"), fillWith("v")); src != sourceMiss {
		t.Fatalf("zero-capacity cache served a %v", src)
	}
}

// TestCacheSingleflight: concurrent requests for one key run the fill
// once; everyone gets the same bytes and the extras count as shared.
func TestCacheSingleflight(t *testing.T) {
	c := newCache(1 << 20)
	const waiters = 8
	var fills int
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) {
				fills++ // safe: only one fill may run
				once.Do(func() { close(started) })
				<-gate
				return []byte("shared"), true, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = string(body)
		}(i)
	}
	<-started
	// Hold the gate until every other goroutine has attached to the
	// in-flight fill — otherwise latecomers would hit the stored entry.
	waitFor(t, func() bool { return c.stats().Shared == waiters-1 })
	close(gate)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	for i, r := range results {
		if r != "shared" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	st := c.stats()
	if st.Misses != 1 || st.Shared != waiters-1 {
		t.Fatalf("stats = %+v; want 1 miss, %d shared", st, waiters-1)
	}
}

func TestKeyIsInjectiveOverFieldBoundaries(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("key collides across field boundaries")
	}
	if Key("a") == Key("a", "") {
		t.Fatal("key ignores empty trailing fields")
	}
	for i := 0; i < 4; i++ {
		if got := Key("x", fmt.Sprint(i)); len(got) != 32 {
			t.Fatalf("key length %d, want the 32 bytes of a SHA-256 digest", len(got))
		}
	}
}

// TestCachePanicFailsFlight: a panicking fill must not strand
// collapsed waiters or leak the flight entry — waiters complete with
// errFillPanicked, the panic propagates on the owner's goroutine, and
// a later request for the same key gets a fresh fill.
func TestCachePanicFailsFlight(t *testing.T) {
	c := newCache(1 << 20)
	waiterErr := make(chan error, 1)
	go func() {
		// Attach to the flight once it exists.
		waitFor(t, func() bool { return c.stats().Misses == 1 })
		_, _, err := c.do(context.Background(), testKey("k"), fillWith("never runs"))
		waiterErr <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the flight owner")
			}
		}()
		c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) {
			// Panic only once the waiter is attached to the flight, so
			// the cleanup path is what unblocks it.
			waitFor(t, func() bool { return c.stats().Shared == 1 })
			panic("decision exploded")
		})
	}()
	if err := <-waiterErr; !errors.Is(err, errFillPanicked) {
		t.Fatalf("waiter err = %v, want errFillPanicked", err)
	}
	// The key is free again: a fresh fill runs and caches normally.
	body, src, err := c.do(context.Background(), testKey("k"), fillWith("recovered"))
	if err != nil || src != sourceMiss || string(body) != "recovered" {
		t.Fatalf("post-panic do = %q, %v, %v; want fresh miss", body, src, err)
	}
}

// TestCacheWaiterHonorsContext: a collapsed waiter whose context
// expires walks away with the context error instead of blocking on a
// slow fill forever — the exchange-timeout middleware depends on this.
func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newCache(1 << 20)
	gate := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		c.do(context.Background(), testKey("k"), func() ([]byte, bool, error) {
			<-gate
			return []byte("slow"), true, nil
		})
	}()
	waitFor(t, func() bool { return c.stats().Misses == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, src, err := c.do(ctx, testKey("k"), fillWith("never runs"))
	if !errors.Is(err, context.DeadlineExceeded) || src != sourceShared {
		t.Fatalf("expired waiter = %v, %v; want shared + DeadlineExceeded", src, err)
	}
	close(gate)
	<-ownerDone
	// The abandoned fill still completed and cached for everyone else.
	body, src, err := c.do(context.Background(), testKey("k"), fillWith("never runs"))
	if err != nil || src != sourceHit || string(body) != "slow" {
		t.Fatalf("post-abandon do = %q, %v, %v; want cached slow", body, src, err)
	}
}

// TestCachedVerdictIsOneHeapObject: a stored verdict costs the garbage
// collector one object, its body. The index, the slots and their links
// hold no pointer, so a key string, a pointer-valued index or a list
// element per entry would each fail this.
func TestCachedVerdictIsOneHeapObject(t *testing.T) {
	const n = 10000
	keys := make([][sha256.Size]byte, n)
	for i := range keys {
		keys[i] = testKey(strconv.Itoa(i))
	}
	body := func() ([]byte, bool, error) { return make([]byte, 64), true, nil }
	c := newCache(n * charge(make([]byte, 64)))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapObjects
	for _, k := range keys {
		c.do(context.Background(), k, body)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if st := c.stats(); st.Entries != n || st.Evictions != 0 {
		t.Fatalf("stats = %+v; want %d entries, no eviction", st, n)
	}
	perEntry := (float64(ms.HeapObjects) - float64(before)) / n
	t.Logf("%.2f live heap objects per stored verdict", perEntry)
	if perEntry > 1.25 {
		t.Errorf("the live heap grew by %.2f objects per stored verdict, want at most 1.25", perEntry)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(c)
}

// refLRU is the reference FuzzCacheMatchesLRU holds the cache to: the
// entries as a slice in recency order, most recent first, under the
// same budget and charge.
type refLRU struct {
	capacity, bytes         int64
	entries                 []refEntry
	hits, misses, evictions int64
}

type refEntry struct {
	key  byte
	body []byte
}

func (r *refLRU) do(key byte, body []byte, cacheable bool, err error) ([]byte, cacheSource, error) {
	for i, e := range r.entries {
		if e.key == key {
			r.hits++
			copy(r.entries[1:i+1], r.entries[:i])
			r.entries[0] = e
			return e.body, sourceHit, nil
		}
	}
	r.misses++
	cost := int64(sha256.Size+len(body)) + entryOverhead
	if err == nil && cacheable && cost <= r.capacity {
		for r.bytes+cost > r.capacity {
			last := r.entries[len(r.entries)-1]
			r.entries = r.entries[:len(r.entries)-1]
			r.bytes -= int64(sha256.Size+len(last.body)) + entryOverhead
			r.evictions++
		}
		r.entries = append([]refEntry{{key, body}}, r.entries...)
		r.bytes += cost
	}
	return body, sourceMiss, err
}

// FuzzCacheMatchesLRU holds the cache to refLRU. The first byte sets
// the budget (8 bytes a unit, so a few entries fit), and each pair of
// bytes after it is one fill: the low three bits of the first pick one
// of 8 keys, bit 3 makes the result uncacheable and bit 4 an error, and
// its top three bits and the second byte give a body of up to 300
// bytes. After every call the source, the body and every stats field
// must agree.
func FuzzCacheMatchesLRU(f *testing.F) {
	// TestCacheLRUEviction's sequence: a, b, a, c, a, c, b with 256-byte
	// bodies under a budget of two entries.
	f.Add([]byte{104, 32, 0, 33, 0, 32, 0, 34, 0, 32, 0, 34, 0, 33, 0})
	f.Add([]byte{0, 0, 5, 0, 5, 8, 5})                     // no storage
	f.Add([]byte{20, 0, 200, 1, 1, 0, 200, 0, 1})          // a body past the budget
	f.Add([]byte{255, 1, 40, 9, 40, 1, 40, 17, 40, 17, 7}) // uncacheable, then an error
	f.Add([]byte{160, 0, 90, 1, 80, 2, 70, 3, 60, 4, 50, 0, 1, 5, 40, 2, 30, 6, 20, 7, 10, 3, 0, 1, 1})
	boom := errors.New("boom")
	// describe names a body by its length and the fill that made it.
	describe := func(body []byte) string {
		if len(body) == 0 {
			return "an empty body"
		}
		return fmt.Sprintf("%d bytes from fill %d", len(body), body[0]/2)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 8 * int64(data[0])
		c, ref := newCache(capacity), &refLRU{capacity: capacity}
		for i := 1; i+1 < len(data); i += 2 {
			op, key := data[i], data[i]&7
			body := bytes.Repeat([]byte{byte(i)}, (int(op>>5)<<8|int(data[i+1]))%301)
			cacheable := op&8 == 0
			var err error
			if op&16 != 0 {
				err = boom
			}
			got, src, gotErr := c.do(context.Background(), testKey(string(rune('a'+key))), func() ([]byte, bool, error) {
				return body, cacheable, err
			})
			want, wantSrc, wantErr := ref.do(key, body, cacheable, err)
			if src != wantSrc || !bytes.Equal(got, want) || gotErr != wantErr {
				t.Fatalf("fill %d (key %d): got %v, %s, %v; want %v, %s, %v",
					i/2, key, src, describe(got), gotErr, wantSrc, describe(want), wantErr)
			}
			wantStats := CacheStats{Hits: ref.hits, Misses: ref.misses, Evictions: ref.evictions,
				Entries: len(ref.entries), Bytes: ref.bytes, Capacity: capacity}
			if st := c.stats(); st != wantStats {
				t.Fatalf("fill %d (key %d): stats %+v, want %+v", i/2, key, st, wantStats)
			}
		}
	})
}
