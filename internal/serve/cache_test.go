package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func fillWith(body string) func() ([]byte, bool, error) {
	return func() ([]byte, bool, error) { return []byte(body), true, nil }
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newCache(1 << 20)
	body, src, err := c.do(context.Background(), "k", fillWith("v"))
	if err != nil || src != sourceMiss || string(body) != "v" {
		t.Fatalf("first do = %q, %v, %v; want v, miss, nil", body, src, err)
	}
	calls := 0
	body, src, err = c.do(context.Background(), "k", func() ([]byte, bool, error) { calls++; return nil, false, nil })
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
	if _, _, err := c.do(context.Background(), "k", func() ([]byte, bool, error) { return []byte("v"), false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, src, _ := c.do(context.Background(), "k", fillWith("w")); src != sourceMiss {
		t.Fatalf("uncacheable result was served from cache (%v)", src)
	}
}

func TestCacheErrorNotStoredAndPropagated(t *testing.T) {
	c := newCache(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), "k", func() ([]byte, bool, error) { return nil, true, boom }); !errors.Is(err, boom) {
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
	perEntry := int64(1+len(body)) + entryOverhead
	c := newCache(2 * perEntry)
	fill := func() ([]byte, bool, error) { return body, true, nil }
	c.do(context.Background(), "a", fill)
	c.do(context.Background(), "b", fill)
	c.do(context.Background(), "a", fill) // hit: refresh a, so b is now LRU
	c.do(context.Background(), "c", fill) // evicts b
	if _, src, _ := c.do(context.Background(), "a", fill); src != sourceHit {
		t.Errorf("a evicted; want kept (refreshed)")
	}
	if _, src, _ := c.do(context.Background(), "c", fill); src != sourceHit {
		t.Errorf("c evicted; want kept (most recent)")
	}
	if _, src, _ := c.do(context.Background(), "b", fill); src != sourceMiss {
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
	c.do(context.Background(), "k", fillWith("v"))
	if _, src, _ := c.do(context.Background(), "k", fillWith("v")); src != sourceMiss {
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
			body, _, err := c.do(context.Background(), "k", func() ([]byte, bool, error) {
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
		_, _, err := c.do(context.Background(), "k", fillWith("never runs"))
		waiterErr <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the flight owner")
			}
		}()
		c.do(context.Background(), "k", func() ([]byte, bool, error) {
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
	body, src, err := c.do(context.Background(), "k", fillWith("recovered"))
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
		c.do(context.Background(), "k", func() ([]byte, bool, error) {
			<-gate
			return []byte("slow"), true, nil
		})
	}()
	waitFor(t, func() bool { return c.stats().Misses == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, src, err := c.do(ctx, "k", fillWith("never runs"))
	if !errors.Is(err, context.DeadlineExceeded) || src != sourceShared {
		t.Fatalf("expired waiter = %v, %v; want shared + DeadlineExceeded", src, err)
	}
	close(gate)
	<-ownerDone
	// The abandoned fill still completed and cached for everyone else.
	body, src, err := c.do(context.Background(), "k", fillWith("never runs"))
	if err != nil || src != sourceHit || string(body) != "slow" {
		t.Fatalf("post-abandon do = %q, %v, %v; want cached slow", body, src, err)
	}
}
