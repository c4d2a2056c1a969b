package runner

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain widens the process-wide cap so the parallel paths are exercised
// even on single-CPU machines (where the default cap would serialize
// everything).
func TestMain(m *testing.M) {
	SetMaxParallel(8)
	os.Exit(m.Run())
}

// TestMapOrderedAtAnyWorkerCount is the package's core contract: results come
// back in job order whatever the pool size.
func TestMapOrderedAtAnyWorkerCount(t *testing.T) {
	const n = 100
	for _, w := range []int{0, 1, 2, 7, 16, 200} {
		out, err := Map(n, Options{Workers: w}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", w, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
}

// TestMapAggregatesErrorsInJobOrder checks every failure is reported, indexed
// and in job order, and that partial success still fails the whole Map.
func TestMapAggregatesErrorsInJobOrder(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(10, Options{Workers: 4}, func(i int) (int, error) {
		if i%3 == 0 {
			return 0, fmt.Errorf("%w at %d", sentinel, i)
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("aggregate hides cause: %v", err)
	}
	var je JobError
	if !errors.As(err, &je) {
		t.Fatalf("aggregate has no JobError: %v", err)
	}
	if je.Job != 0 {
		t.Errorf("first reported job = %d, want 0", je.Job)
	}
	// All four failing jobs (0, 3, 6, 9) must be named.
	for _, idx := range []string{"job 0", "job 3", "job 6", "job 9"} {
		if !containsSub(err.Error(), idx) {
			t.Errorf("aggregate %q missing %q", err.Error(), idx)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTryMapKeepsPartialResults checks TryMap hands back every result slot
// alongside per-job errors, which the sweep post-filter relies on.
func TestTryMapKeepsPartialResults(t *testing.T) {
	out, errs := TryMap(5, Options{Workers: 3}, func(i int) (string, error) {
		if i == 2 {
			return "", errors.New("unstable")
		}
		return fmt.Sprintf("v%d", i), nil
	})
	if len(out) != 5 || len(errs) != 5 {
		t.Fatalf("lengths %d/%d", len(out), len(errs))
	}
	for i := 0; i < 5; i++ {
		if i == 2 {
			if errs[i] == nil {
				t.Error("job 2 error lost")
			}
			continue
		}
		if errs[i] != nil || out[i] != fmt.Sprintf("v%d", i) {
			t.Errorf("job %d: %q / %v", i, out[i], errs[i])
		}
	}
}

// TestWorkerCap checks no more than Workers jobs run concurrently.
func TestWorkerCap(t *testing.T) {
	const w = 3
	var running, peak atomic.Int64
	_, err := Map(24, Options{Workers: w}, func(i int) (int, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched() // give other workers a chance to overlap
		running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > w {
		t.Errorf("peak concurrency %d exceeds cap %d", p, w)
	}
}

// TestNestedMapsRespectGlobalCap stacks a fan-out inside a fan-out, as the
// report does (artifacts -> sweeps), and checks total concurrently running
// jobs never exceed the process-wide bound - per-call Workers must not
// multiply across nesting levels.
func TestNestedMapsRespectGlobalCap(t *testing.T) {
	const cap = 3
	SetMaxParallel(cap)
	defer SetMaxParallel(8) // restore the test-wide setting

	var running, peak atomic.Int64
	track := func() {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
	}
	_, err := Map(6, Options{Workers: 6}, func(i int) (int, error) {
		inner, err := Map(6, Options{Workers: 6}, func(j int) (int, error) {
			track()
			return j, nil
		})
		if err != nil {
			return 0, err
		}
		return len(inner), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > cap {
		t.Errorf("peak concurrency %d exceeds process-wide cap %d", p, cap)
	}
}

// TestSetMaxParallelSerial checks n<=1 forces fully inline execution.
func TestSetMaxParallelSerial(t *testing.T) {
	SetMaxParallel(0)
	defer SetMaxParallel(8)
	var peak atomic.Int64
	var running atomic.Int64
	_, err := Map(10, Options{Workers: 8}, func(i int) (int, error) {
		cur := running.Add(1)
		if cur > peak.Load() {
			peak.Store(cur)
		}
		runtime.Gosched()
		running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Errorf("peak concurrency %d, want 1 (serial)", peak.Load())
	}
}

// TestZeroJobs checks the degenerate fan-out.
func TestZeroJobs(t *testing.T) {
	out, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestItems checks the slice adapter preserves pairing and order.
func TestItems(t *testing.T) {
	items := []float64{0.1, 0.2, 0.3, 0.4}
	out, err := Items(items, Options{Workers: 2}, func(i int, x float64) (float64, error) {
		return float64(i) + x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i)+items[i] {
			t.Errorf("out[%d] = %v", i, v)
		}
	}
}

// TestDefaultWorkersPositive pins the GOMAXPROCS sizing.
func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// BenchmarkMapFanOut measures the fan-out engine itself on small CPU-bound
// jobs: the per-job dispatch overhead every layer above pays. CI's
// benchmark gate watches it alongside the dist and service hot paths.
func BenchmarkMapFanOut(b *testing.B) {
	work := func(j int) (int, error) {
		s := 0
		for k := 0; k < 2000; k++ {
			s += k ^ j
		}
		return s, nil
	}
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(256, Options{Workers: w}, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
