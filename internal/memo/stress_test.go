package memo

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressAccountingConservation hammers a deliberately undersized cache
// from 4x GOMAXPROCS goroutines with a mixed hot/cold key workload and
// checks the books afterwards: every successful compute inserts exactly one
// absent key, so inserts must equal entries plus evictions — an eviction
// lost (or double-counted) breaks the identity. Run under -race this is also the package's concurrency proof.
func TestStressAccountingConservation(t *testing.T) {
	const (
		capacity = 64
		hotKeys  = 16  // fit comfortably: mostly hits
		coldKeys = 512 // 8x capacity: constant eviction churn
		opsEach  = 400
	)
	c := New[int](capacity, 8)
	var computes atomic.Uint64
	var lookups atomic.Uint64
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-gate
			for i := 0; i < opsEach; i++ {
				var key string
				if rng.Intn(4) > 0 { // 75% hot
					key = fmt.Sprintf("hot-%d", rng.Intn(hotKeys))
				} else {
					key = fmt.Sprintf("cold-%d", rng.Intn(coldKeys))
				}
				lookups.Add(1)
				v, _, err := c.Do(key, func() (int, error) {
					computes.Add(1)
					return len(key), nil
				})
				if err != nil || v != len(key) {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	close(gate)
	wg.Wait()

	st := c.Stats()
	if got := uint64(st.Entries) + st.Evictions; got != computes.Load() {
		t.Errorf("accounting broken: %d entries + %d evictions != %d computes",
			st.Entries, st.Evictions, computes.Load())
	}
	if st.Hits+st.Misses != lookups.Load() {
		t.Errorf("hit/miss accounting broken: %d + %d != %d lookups",
			st.Hits, st.Misses, lookups.Load())
	}
	if st.Entries > capacity {
		t.Errorf("%d entries exceed total capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Error("stress never evicted: the cold key space should overflow the cache")
	}
}
