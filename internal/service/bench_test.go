package service

import (
	"fmt"
	"testing"

	"fpsping/internal/scenario"
)

// BenchmarkServiceRTT is the daemon's hot path: one /v1/rtt evaluation,
// cold (compile, decomposition and mean) versus cached (memo lookup). The
// cached/cold ratio is the whole case for the cache; CI's benchmark gate
// watches every arm. cold builds a new engine per request, as a fresh
// daemon would; cold-shared asks one engine for a new canonical key each
// time, so the arm is the cold evaluation without NewEngine's memo
// preallocation. Its keys differ only in FixedMs, which adds a constant
// after the inversion, so every request computes the same laws.
func BenchmarkServiceRTT(b *testing.B) {
	sc := scenario.Default()
	sc.Load = 0.5
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(1, 0)
			if _, _, err := e.RTT(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-shared", func(b *testing.B) {
		e := NewEngine(1, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sci := sc
			sci.FixedMs = float64(i)
			if _, cached, err := e.RTT(sci); err != nil || cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngine(1, 0)
		if _, _, err := e.RTT(sc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, cached, err := e.RTT(sc); err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
}

// BenchmarkServiceBatch evaluates a 16-scenario batch (a load grid, all
// distinct) cold at several worker counts: the fan-out speedup of
// /v1/rtt:batch. The warm case measures the all-hits path.
func BenchmarkServiceBatch(b *testing.B) {
	scs := make([]scenario.Scenario, 16)
	for i := range scs {
		sc := scenario.Default()
		sc.Load = 0.05 + 0.05*float64(i)
		scs[i] = sc
	}
	for _, jobs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("cold/jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := NewEngine(jobs, 0)
				res := e.Batch(scs)
				for _, item := range res.Results {
					if item.Error != "" {
						b.Fatal(item.Error)
					}
				}
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		e := NewEngine(4, 0)
		e.Batch(scs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := e.Batch(scs); res.Cached != len(scs) {
				b.Fatalf("only %d/%d cached", res.Cached, len(scs))
			}
		}
	})
}

// BenchmarkEngineRTTParallelHit is the engine's contention case: every
// goroutine hammers the warm cache with hits spread over a pool of
// scenarios, so the only cost is the lookup itself and the queue in front
// of the memo mutex. Run with -cpu 1,4,8 in CI's paired benchgate run, a
// lock regression shows as a per-op cost that climbs with the core count.
func BenchmarkEngineRTTParallelHit(b *testing.B) {
	scs := make([]scenario.Scenario, 16)
	for i := range scs {
		sc := scenario.Default()
		sc.Load = 0.05 + 0.05*float64(i)
		scs[i] = sc
	}
	e := NewEngine(4, 0)
	for _, sc := range scs {
		if _, _, err := e.RTT(sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, cached, err := e.RTT(scs[i%len(scs)]); err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
}

// BenchmarkServiceSweep measures a cached-vs-cold /v1/sweep over the
// paper's 18-point load grid.
func BenchmarkServiceSweep(b *testing.B) {
	sc := scenario.Default()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(4, 0)
			if _, _, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngine(4, 0)
		if _, _, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, cached, err := e.Sweep(sc, 0.05, 0.90, 0.05); err != nil || !cached {
				b.Fatalf("cached=%v err=%v", cached, err)
			}
		}
	})
}
