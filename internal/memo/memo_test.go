package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// errMiss is the failure get's compute returns, so a miss caches nothing.
var errMiss = errors.New("miss")

// Peek returns the cached value without side effects: no hit/miss counting
// and no recency update, so a test can inspect what a cache holds without
// disturbing the statistics or the eviction order it checks.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*entry[V]).val, true
}

// get looks key up through Do: a hit counts and touches recency exactly as
// every cached answer does, and a miss counts and leaves the cache as it
// was.
func get[V any](c *Cache[V], key string) (V, bool) {
	v, _, err := c.Do(key, func() (V, error) {
		var zero V
		return zero, errMiss
	})
	return v, err == nil
}

func TestSingleShardLRUSemantics(t *testing.T) {
	// The cache is a plain LRU: the engine cache's eviction-order contract
	// must hold exactly.
	c := New[int](2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // update, not insert: moves a to front
	c.Put("c", 3)  // evicts b, the LRU entry
	if _, ok := get(c, "b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := get(c, "a"); !ok || v != 10 {
		t.Errorf("a = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestGetTouchesRecency(t *testing.T) {
	c := New[int](2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	get(c, "a")   // a becomes most recently used
	c.Put("c", 3) // evicts b
	if _, ok := get(c, "a"); !ok {
		t.Error("touched entry evicted")
	}
	if _, ok := get(c, "b"); ok {
		t.Error("untouched entry survived")
	}
}

// TestExactCapacityIgnoresShards pins the exact-LRU contract at the size
// the daemon runs: whatever the legacy shard argument says, a 4096-entry
// cache holds 4096 distinct keys without evicting, and the next insert
// evicts the cache-wide least recently used key, not a per-stripe one.
func TestExactCapacityIgnoresShards(t *testing.T) {
	const capacity = 4096
	c := New[int](capacity, 8)
	for i := 0; i < capacity; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 0 {
		t.Fatalf("after %d distinct puts: %d entries, %d evictions; want %d and 0",
			capacity, st.Entries, st.Evictions, capacity)
	}
	// key-0 is the oldest; touching it makes key-1 the global LRU entry.
	get(c, "key-0")
	c.Put("overflow", -1)
	if _, ok := c.Peek("key-1"); ok {
		t.Error("key-1, the least recently used entry, survived the overflow put")
	}
	for _, key := range []string{"key-0", "key-2", fmt.Sprintf("key-%d", capacity-1), "overflow"} {
		if _, ok := c.Peek(key); !ok {
			t.Errorf("%s was evicted in place of key-1", key)
		}
	}
	if st := c.Stats(); st.Entries != capacity || st.Evictions != 1 {
		t.Errorf("after the overflow put: %d entries, %d evictions; want %d and 1",
			st.Entries, st.Evictions, capacity)
	}
}

func TestDoComputesOncePerKey(t *testing.T) {
	c := New[int](128, 4)
	const k = 16
	var computes int
	var mu sync.Mutex
	gate := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, k)
	shareds := make([]bool, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, shared, err := c.Do("key", func() (int, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shareds[i] = v, shared
		}(i)
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Errorf("%d concurrent Do calls ran %d computes, want 1", k, computes)
	}
	leaders := 0
	for i := 0; i < k; i++ {
		if vals[i] != 42 {
			t.Errorf("goroutine %d got %d", i, vals[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d goroutines reported shared=false, want exactly the leader", leaders)
	}
	// A later call is a plain hit.
	if _, shared, _ := c.Do("key", func() (int, error) { t.Error("recomputed"); return 0, nil }); !shared {
		t.Error("warm Do missed the cache")
	}
}

func TestDoErrorsNotCached(t *testing.T) {
	c := New[int](8, 2)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, shared, err := c.Do("k", fail); err != boom || shared {
		t.Fatalf("first Do: shared=%v err=%v", shared, err)
	}
	if _, _, err := c.Do("k", fail); err != boom {
		t.Fatalf("second Do err=%v", err)
	}
	if calls != 2 {
		t.Errorf("failing compute ran %d times, want 2 (errors are never cached)", calls)
	}
	if c.Stats().Entries != 0 {
		t.Errorf("failed computes left %d entries", c.Stats().Entries)
	}
}

// TestDoPanicDoesNotWedgeKey: a panicking compute reaches the leader's
// caller, hands its joiner an error instead of a zero success, and leaves
// the key computable. The leader panics only once the joiner has counted
// its miss, which Do does under the lock it finds the flight with, so the
// joiner always joins. Every wait is bounded: a Do that blocks after the
// panic fails the test instead of hanging it.
func TestDoPanicDoesNotWedgeKey(t *testing.T) {
	c := New[int](8, 2)
	type result struct {
		v      int
		shared bool
		err    error
	}
	do := func(v int) <-chan result {
		ch := make(chan result, 1)
		go func() {
			var r result
			r.v, r.shared, r.err = c.Do("k", func() (int, error) { return v, nil })
			ch <- r
		}()
		return ch
	}
	wait := func(what string, ch <-chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Do still blocked after 5s", what)
			return result{}
		}
	}

	var joiner <-chan result
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader's caller")
			}
		}()
		c.Do("k", func() (int, error) {
			joiner = do(7)
			for deadline := time.Now().Add(5 * time.Second); c.Stats().Misses < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("joiner never reached the flight")
				}
			}
			panic("boom")
		})
	}()
	if r := wait("joiner", joiner); r.err == nil || !r.shared {
		t.Errorf("joiner of the panicked flight: v=%d shared=%v err=%v, want a shared error", r.v, r.shared, r.err)
	}
	if r := wait("next call", do(42)); r.err != nil || r.v != 42 {
		t.Fatalf("key wedged after panic: v=%d err=%v", r.v, r.err)
	}
}

func TestDoDistinctKeysDoNotCoalesce(t *testing.T) {
	c := New[int](128, 4)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		v, shared, err := c.Do(key, func() (int, error) { return i, nil })
		if err != nil || shared || v != i {
			t.Fatalf("key %s: v=%d shared=%v err=%v", key, v, shared, err)
		}
	}
	if c.Stats().Entries != 20 {
		t.Errorf("Len = %d, want 20", c.Stats().Entries)
	}
}

func TestZeroValueHit(t *testing.T) {
	// A stored zero value is still a hit (the ok bool disambiguates).
	c := New[int](8, 1)
	c.Put("zero", 0)
	if v, ok := get(c, "zero"); !ok || v != 0 {
		t.Errorf("zero value: v=%d ok=%v", v, ok)
	}
}
