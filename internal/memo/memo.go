// Package memo is the daemon's memoization core: a generic, fixed-capacity,
// exact LRU cache with singleflight miss coalescing. It is the shared
// machinery behind internal/service's Engine (where the seeded Sum tail
// inversions and ITP dimensioning searches behind each answer are the hot
// path) and usable by any other layer that wants "compute once, share
// forever" semantics.
//
// One mutex guards one LRU list, one hash map, the hit/miss/eviction
// counters and the singleflight table, so the cache holds exactly its
// capacity and always evicts the cache-wide least recently used entry.
// Computations run outside the lock, so a slow compute on one key never
// blocks lookups on any other. A hit holds the lock for well under a
// microsecond, which is small next to everything else a cached request
// costs; lock striping measured no gain at that ratio.
//
// Values must be treated as immutable once stored: every hit hands out the
// same stored value.
package memo

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is an exact LRU memo cache with singleflight miss coalescing. All
// methods are safe for concurrent use.
type Cache[V any] struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*call[V]

	hits, misses, evictions uint64
}

// entry is one cached key/value pair, owned by the LRU list.
type entry[V any] struct {
	key string
	val V
}

// call is one in-progress computation; done closes after val/err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity entries. capacity < 1 is
// treated as 1. shards is ignored: it remains in the signature so existing
// callers keep compiling, and the cache is one exact LRU whatever it says.
func New[V any](capacity, shards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:    capacity,
		order:  list.New(),
		items:  make(map[string]*list.Element, capacity),
		flight: make(map[string]*call[V]),
	}
}

// Put stores a value, evicting the least recently used entry when the cache
// is full.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

func (c *Cache[V]) putLocked(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*entry[V]).key)
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// Do answers key from the cache, joining an identical in-flight computation
// when one exists, and otherwise runs compute exactly once, storing the
// result on success. shared reports whether the answer arrived without
// computing here: a cache hit or a joined flight. Failed computations are
// handed to their joiners but never cached, so the next request retries.
//
// The mutex guards the LRU and the flight table together, which makes the
// exactly-once guarantee a one-lock argument: a goroutine that misses either
// finds the leader's flight entry (and joins it) or runs after the leader
// published-and-retired under that same lock, in which case its lookup is a
// hit. There is no window for a second leader. The computation itself runs
// outside the lock, so one slow key never blocks the cache.
//
// Hit/miss counters record one miss per goroutine that missed the cache,
// joiners included; coalescing is visible to callers that count their own
// compute invocations (service.Engine.Computes), not in the miss counter.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (v V, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		v = el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	c.misses++
	if cl, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.val, true, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	c.flight[key] = cl
	c.mu.Unlock()

	// Publish and retire in a defer so a panicking compute cannot wedge the
	// key: the flight entry is removed and done is closed whatever happens
	// (joiners of a panicked computation get an error, not a zero success),
	// and the panic keeps unwinding to the caller afterwards.
	completed := false
	defer func() {
		if !completed {
			cl.err = fmt.Errorf("memo: computing %q panicked", key)
		}
		c.mu.Lock()
		if completed && cl.err == nil {
			c.putLocked(key, cl.val)
		}
		delete(c.flight, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	completed = true
	return cl.val, false, cl.err
}

// Stats is a consistent snapshot of the cache's occupancy and cumulative
// counters.
type Stats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the cache's occupancy and counters under one lock.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.order.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
