// Package runner is the repo's shared concurrent execution engine: a
// deterministic fan-out over an indexed job set. Every sweep, replication and
// artifact in the layers above (internal/experiments, internal/core, the CLI
// report mode) funnels through Map/TryMap, so one place owns worker-pool
// sizing, ordered result collection and error aggregation.
//
// Determinism contract: results are collected by job index, never by
// completion order, and jobs must derive any randomness from their own index
// (dist.NewRNG(seed, jobIndex)-style splitting), so output is byte-identical
// at any worker count - including Workers=1.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when Options.Workers <= 0: one
// worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// The process-wide concurrency bound. Every Map runs jobs on its calling
// goroutine and adds helper goroutines only while the global helper count is
// below the cap, so stacked fan-outs (a report running artifacts that run
// sweeps) cannot multiply past the operator's -jobs bound: total running
// jobs stay <= 1 + cap whatever the nesting. Callers never need a token,
// which keeps nested Maps deadlock-free - a saturated pool just degrades to
// inline execution.
var (
	helperCount atomic.Int64
	helperCap   atomic.Int64
)

func init() { helperCap.Store(int64(DefaultWorkers() - 1)) }

// SetMaxParallel bounds the total number of concurrently running jobs across
// every (possibly nested) Map in the process to n; n < 1 is treated as 1
// (fully serial). The default is DefaultWorkers(). Top-level entry points
// (the CLI's -jobs flag, experiments.Report) call this; results are
// byte-identical at any setting.
func SetMaxParallel(n int) {
	if n < 1 {
		n = 1
	}
	helperCap.Store(int64(n - 1))
}

// acquireHelper claims a helper slot if the cap allows.
func acquireHelper() bool {
	for {
		cur := helperCount.Load()
		if cur >= helperCap.Load() {
			return false
		}
		if helperCount.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helperCount.Add(-1) }

// Options configures one fan-out.
type Options struct {
	// Workers caps this call's concurrently running jobs; <= 0 means
	// DefaultWorkers(). The process-wide SetMaxParallel bound applies on
	// top of it. Workers=1 degenerates to a serial loop on the calling
	// goroutine (no spawning), which keeps single-job callers and the
	// -jobs=1 CLI path allocation-free.
	Workers int
}

// JobError wraps a job's failure with its index, so aggregated errors name
// the grid point (load, K, replica...) that failed.
type JobError struct {
	Job int
	Err error
}

// Error formats "job N: cause".
func (e JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Job, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e JobError) Unwrap() error { return e.Err }

// workers resolves the effective worker count for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = DefaultWorkers()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TryMap runs fn for every job index in [0, n) on a bounded worker pool and
// returns the results and errors ordered by job index (both always length n).
// Unlike Map it never discards partial results: callers that must replicate
// ordered early-exit semantics (e.g. a sweep that stops at the first unstable
// point) post-filter the full slices.
func TryMap[T any](n int, o Options, fn func(job int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}

	w := o.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, errs
	}

	var next atomic.Int64
	runJobs := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i], errs[i] = fn(i)
		}
	}
	// The caller is always a worker; add helpers up to this call's cap while
	// the process-wide cap has room.
	var wg sync.WaitGroup
	for k := 0; k < w-1 && acquireHelper(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			runJobs()
		}()
	}
	runJobs()
	wg.Wait()
	return out, errs
}

// Map runs fn for every job index in [0, n) and returns the ordered results,
// or the aggregate of every job failure (in index order, each wrapped in a
// JobError) if any job errored.
func Map[T any](n int, o Options, fn func(job int) (T, error)) ([]T, error) {
	out, errs := TryMap(n, o, fn)
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, JobError{Job: i, Err: err})
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	return out, nil
}

// Items is Map over an explicit slice: fn receives each item with its index
// and results come back in item order.
func Items[S, T any](items []S, o Options, fn func(job int, item S) (T, error)) ([]T, error) {
	return Map(len(items), o, func(i int) (T, error) { return fn(i, items[i]) })
}
