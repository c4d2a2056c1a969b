package service

import (
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/scenario"
)

// TestSingleflightComputesOnce is the singleflight contract: K goroutines
// requesting the same cold scenario concurrently run exactly one core
// computation (the compute counter moves by one), and every goroutine gets a
// byte-identical response. The invariant holds under any interleaving: a
// goroutine either joins the in-flight computation or, arriving later, hits
// the cache the leader filled — there is no window in which a second leader
// can start (see memo.Cache.Do).
func TestSingleflightComputesOnce(t *testing.T) {
	const k = 16
	e := NewEngine(4, 0)
	sc := testScenario(0.5)

	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([][]byte, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, _, err := e.RTT(sc)
			if err != nil {
				errs[i] = err
				return
			}
			bodies[i], errs[i] = json.Marshal(res)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < k; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("goroutine %d response differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := e.Computes(); got != 1 {
		t.Errorf("%d concurrent identical misses ran %d computations, want 1", k, got)
	}
}

// TestSingleflightErrorsNotCached pins the failure path: an errored
// computation is handed to its joiners but never cached, so a later request
// recomputes (and fails again) instead of serving a stale error.
func TestSingleflightErrorsNotCached(t *testing.T) {
	e := NewEngine(2, 0)
	unstable := testScenario(1.5)
	if _, _, err := e.RTT(unstable); err == nil {
		t.Fatal("unstable scenario accepted")
	}
	if _, _, err := e.RTT(unstable); err == nil {
		t.Fatal("unstable scenario accepted on retry")
	}
	if got := e.Computes(); got != 2 {
		t.Errorf("sequential failing requests ran %d computations, want 2 (errors must not be cached)", got)
	}
	if entries := e.CacheStats().Entries; entries != 0 {
		t.Errorf("failed computations left %d cache entries", entries)
	}
}

// TestSweepSharesRTTPointMemo pins the shared "pt|" key space: a /v1/rtt
// evaluation warms the sweep grid point for the same resolved scenario, and
// overlapping sweep grids reuse each other's points, so neither recomputes.
func TestSweepSharesRTTPointMemo(t *testing.T) {
	e := NewEngine(2, 0)
	sc := scenario.Default()

	// One RTT evaluation at load 0.3 = one computation...
	at := sc
	at.Load = 0.3
	rtt, _, err := e.RTT(at)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Computes(); got != 1 {
		t.Fatalf("cold RTT ran %d computations", got)
	}
	// ...and the single-point sweep crossing it runs none at all.
	sw, _, err := e.Sweep(sc, 0.3, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Computes(); got != 1 {
		t.Errorf("sweep over an RTT-warmed point ran %d computations, want 1", got)
	}
	if len(sw.Points) != 1 || sw.Points[0].RTTMs != rtt.QuantileMs {
		t.Errorf("sweep point %+v does not match RTT answer %g ms", sw.Points, rtt.QuantileMs)
	}

	// A wider grid pays only for loads it has not seen bit-exactly. The
	// 0.1..0.5 grid holds five points, and its third is the accumulated
	// 0.1+0.1+0.1 = 0.30000000000000004, one ulp away from the literal 0.3
	// above — a different scenario as far as the bit-exact canonical key is
	// concerned, so all five points are new.
	wide, _, err := e.Sweep(sc, 0.1, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Points) != 5 {
		t.Fatalf("wide sweep returned %d points", len(wide.Points))
	}
	if got := e.Computes(); got != 6 {
		t.Errorf("wide sweep brought computations to %d, want 6 (5 new points)", got)
	}
	// And a sub-grid of it computes nothing, while returning the same
	// points bit for bit.
	sub, _, err := e.Sweep(sc, 0.2, 0.4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Computes(); got != 6 {
		t.Errorf("sub-grid sweep ran %d computations, want 6 (everything memoized)", got)
	}
	for i, p := range sub.Points {
		if p != wide.Points[i+1] {
			t.Errorf("sub-grid point %d = %+v, want %+v", i, p, wide.Points[i+1])
		}
	}
}

// TestDimensionReusesPointMemo pins cache-aware dimensioning: every
// quantile evaluation inside the MaxLoad search resolves through the
// shared "pt|" point memo instead of bypassing it. Three consequences are
// asserted via the computes counter: the closing evaluation at the accepted
// load is a hit (it was probed during the search), a sweep that crossed a
// probe load pre-pays that probe, and a second dimensioning at a different
// bound shares the two opening probes (the vanishing load and the
// stability ceiling); the ITP probes in between depend on the bound.
func TestDimensionReusesPointMemo(t *testing.T) {
	sc := scenario.Default()

	// Cold reference: every probe is one compute; the closing evaluation at
	// the accepted load re-asks a probed point, so it adds nothing.
	cold := NewEngine(2, 0)
	ref, cached, err := cold.Dimension(sc, 50)
	if err != nil || cached {
		t.Fatalf("cold dimension: cached=%v err=%v", cached, err)
	}
	coldComputes := cold.Computes()
	if coldComputes < 3 {
		t.Fatalf("cold dimension ran %d computes; the search should probe many points", coldComputes)
	}

	// A sweep that crossed the search's opening probe (the vanishing load
	// 1e-6) pre-pays it: dimension after that sweep computes exactly one
	// point fewer, and lands on the identical answer.
	warmed := NewEngine(2, 0)
	if _, _, err := warmed.Sweep(sc, 1e-6, 1e-6, 1); err != nil {
		t.Fatal(err)
	}
	if got := warmed.Computes(); got != 1 {
		t.Fatalf("single-point sweep ran %d computes", got)
	}
	res, _, err := warmed.Dimension(sc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res != ref {
		t.Errorf("memo-warmed dimension differs: %+v vs %+v", res, ref)
	}
	if got := warmed.Computes(); got != coldComputes {
		t.Errorf("dimension after sweep brought computes to %d, want %d (the swept point must hit)",
			got, coldComputes)
	}

	// A second bound on the cold engine shares the opening probes: it
	// computes fewer points than a cold run of either bound, and at least
	// the two opening probes fewer than its own cold run.
	second := NewEngine(2, 0)
	if _, _, err := second.Dimension(sc, 60); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := cold.Dimension(sc, 60); err != nil || cached {
		t.Fatalf("second bound: cached=%v err=%v", cached, err)
	}
	added := cold.Computes() - coldComputes
	if added >= coldComputes {
		t.Errorf("dimensioning a second bound added %d computes, want fewer than the %d of a cold run",
			added, coldComputes)
	}
	if added+2 > second.Computes() {
		t.Errorf("dimensioning a second bound added %d computes, want at most %d (its cold run's %d less the 2 opening probes)",
			added, second.Computes()-2, second.Computes())
	}

	// The identical question is one lookup.
	before := cold.Computes()
	if _, cached, err := cold.Dimension(sc, 50); err != nil || !cached {
		t.Fatalf("warm dimension: cached=%v err=%v", cached, err)
	}
	if got := cold.Computes(); got != before {
		t.Errorf("warm dimension ran %d new computes", got-before)
	}
}

// TestEngineContentionStress hammers one engine from 4x GOMAXPROCS
// goroutines with a mixed hot/cold scenario workload. Whatever the
// interleaving, the compute counter must land exactly on the number of
// distinct scenarios (memoization plus singleflight: no duplicate work, no
// lost work) and the cache's accounting must add up. Run under -race this
// doubles as the engine's contention-safety proof.
func TestEngineContentionStress(t *testing.T) {
	e := NewEngine(4, 0)
	workers := 4 * runtime.GOMAXPROCS(0)
	const hot = 4 // shared by every worker: mostly hits after first touch
	distinctCold := workers / 2
	scAt := func(i int) scenario.Scenario {
		return testScenario(0.05 + 0.01*float64(i))
	}
	var wg sync.WaitGroup
	var calls atomic.Uint64
	gate := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			for i := 0; i < 12; i++ {
				var sc scenario.Scenario
				if i%3 == 0 {
					// Cold-ish keys, each contended by a pair of workers.
					sc = scAt(hot + w%distinctCold)
				} else {
					sc = scAt(i % hot)
				}
				calls.Add(1)
				if _, _, err := e.RTT(sc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(gate)
	wg.Wait()

	distinct := uint64(hot + distinctCold)
	if got := e.Computes(); got != distinct {
		t.Errorf("Computes() = %d, want %d (one per distinct scenario)", got, distinct)
	}
	st := e.CacheStats()
	// Each RTT compute inserts two entries (rtt| and pt|); nothing may be
	// lost or double-counted.
	if uint64(st.Entries)+st.Evictions != 2*distinct {
		t.Errorf("entries %d + evictions %d != %d inserts", st.Entries, st.Evictions, 2*distinct)
	}
	if st.Hits+st.Misses != calls.Load() {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, calls.Load())
	}
}

// TestSweepUnstablePointMemoized pins that the asymptote is cacheable: a
// grid ending at an unstable load records that instability, and a second
// grid crossing the same load stops there without recomputing.
func TestSweepUnstablePointMemoized(t *testing.T) {
	e := NewEngine(2, 0)
	sc := scenario.Default()
	first, _, err := e.Sweep(sc, 0.8, 1.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Points) != 2 {
		t.Fatalf("sweep to 1.1 returned %d points, want 2 (0.8, 0.9; 1.0 is the asymptote)", len(first.Points))
	}
	after := e.Computes()
	second, _, err := e.Sweep(sc, 0.8, 1.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Points) != 2 {
		t.Fatalf("sweep to 1.2 returned %d points, want 2", len(second.Points))
	}
	// LoadGrid accumulates from the same start with the same step, so the
	// overlapping grid's values are bit-identical: it reuses both stable
	// points and the memoized unstable ones. Only 1.2, beyond the first
	// grid's end (still evaluated by the parallel scan), can be new.
	if got := e.Computes(); got > after+1 {
		t.Errorf("overlapping unstable sweep ran %d new computations, want <= 1", got-after)
	}
	// An all-unstable grid still answers 422-style.
	if _, _, err := e.Sweep(sc, 1.05, 1.2, 0.05); err == nil {
		t.Error("all-unstable sweep did not error")
	} else if !errors.Is(err, core.ErrUnstable) {
		t.Errorf("all-unstable sweep error %v does not wrap core.ErrUnstable", err)
	}
}
