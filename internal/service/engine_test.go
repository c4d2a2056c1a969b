package service

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fpsping/internal/metrics"
	"fpsping/internal/scenario"
)

func testScenario(load float64) scenario.Scenario {
	sc := scenario.Default()
	sc.Load = load
	return sc
}

func TestRTTCacheHitIsByteIdentical(t *testing.T) {
	e := NewEngine(2, 0)
	sc := testScenario(0.5)

	cold, cached, err := e.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first evaluation reported as cached")
	}
	warm, cached, err := e.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second evaluation missed the cache")
	}
	a, _ := json.Marshal(cold)
	b, _ := json.Marshal(warm)
	if string(a) != string(b) {
		t.Errorf("cached response differs from cold:\n%s\n%s", a, b)
	}
	// A cold RTT stores two entries: the full result and its sweep-point
	// slice (shared with /v1/sweep grids).
	if st := e.CacheStats(); st.Entries != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %d entries, %d hits, %d misses", st.Entries, st.Hits, st.Misses)
	}
}

// maxRetainedPerEntry bounds the heap a cached answer keeps alive. A point
// memo entry holds its key (~190 B of canonical scenario plus the list and
// map slots) and three scalars, whatever the Erlang order; an entry that
// kept the point's compiled laws retained ~2.3 kB at K = 30 and ~8.5 kB at
// K = 200.
const maxRetainedPerEntry = 600

// TestPointMemoRetention fills engines with cold sweep points at large
// Erlang orders and bounds the live heap per cache entry after a GC.
func TestPointMemoRetention(t *testing.T) {
	for _, tc := range []struct{ k, sweeps int }{{30, 10}, {200, 6}} {
		var before, after runtime.MemStats
		e := NewEngine(1, 0)
		runtime.GC() // twice: the second frees what sync.Pools dropped in the first
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < tc.sweeps; i++ {
			sc := scenario.Default()
			sc.ErlangOrder = tc.k
			sc.FixedMs = float64(i)
			if _, _, err := e.Sweep(sc, 0.05, 0.9, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		n := e.CacheStats().Entries
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
		runtime.KeepAlive(e)
		t.Logf("K = %d: %d entries (%d computes), %.0f B retained per entry", tc.k, n, e.Computes(), per)
		if per > maxRetainedPerEntry {
			t.Errorf("K = %d: %.0f B retained per cache entry, want <= %d", tc.k, per, maxRetainedPerEntry)
		}
	}
}

func TestEquivalentSpellingsShareCacheSlot(t *testing.T) {
	e := NewEngine(2, 0)
	viaLoad := testScenario(0.5)
	if _, cached, err := e.RTT(viaLoad); err != nil || cached {
		t.Fatalf("cold call: cached=%v err=%v", cached, err)
	}
	viaGamers := scenario.Default()
	viaGamers.Gamers = viaLoad.Model().Gamers
	res, cached, err := e.RTT(viaGamers)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("equivalent gamers spelling should hit the load spelling's slot")
	}
	// The hit echoes this request's spelling, not the slot creator's.
	if res.Scenario != viaGamers {
		t.Errorf("echoed scenario %+v, want %+v", res.Scenario, viaGamers)
	}
}

func TestRTTErrors(t *testing.T) {
	e := NewEngine(2, 0)
	bad := scenario.Default()
	bad.Gamers = 0
	if _, _, err := e.RTT(bad); err == nil {
		t.Error("invalid scenario accepted")
	}
	unstable := testScenario(1.5)
	if _, _, err := e.RTT(unstable); err == nil {
		t.Error("unstable scenario accepted")
	}
	if entries := e.CacheStats().Entries; entries != 0 {
		t.Errorf("errors must not be cached, got %d entries", entries)
	}
}

func TestSweepAndDimensionCache(t *testing.T) {
	e := NewEngine(4, 0)
	sc := scenario.Default()

	s1, cached, err := e.Sweep(sc, 0.1, 0.5, 0.1)
	if err != nil || cached {
		t.Fatalf("cold sweep: cached=%v err=%v", cached, err)
	}
	s2, cached, err := e.Sweep(sc, 0.1, 0.5, 0.1)
	if err != nil || !cached {
		t.Fatalf("warm sweep: cached=%v err=%v", cached, err)
	}
	a, _ := json.Marshal(s1)
	b, _ := json.Marshal(s2)
	if string(a) != string(b) {
		t.Error("cached sweep differs from cold")
	}
	if len(s1.Points) != 5 {
		t.Errorf("sweep returned %d points, want 5", len(s1.Points))
	}
	if _, _, err := e.Sweep(sc, 0.5, 0.1, 0.1); err == nil {
		t.Error("inverted sweep range accepted")
	}
	if _, _, err := e.Sweep(sc, 0.1, 0.5, 0); err == nil {
		t.Error("zero step accepted")
	}

	d1, cached, err := e.Dimension(sc, 50)
	if err != nil || cached {
		t.Fatalf("cold dimension: cached=%v err=%v", cached, err)
	}
	d2, cached, err := e.Dimension(sc, 50)
	if err != nil || !cached {
		t.Fatalf("warm dimension: cached=%v err=%v", cached, err)
	}
	if d1 != d2 {
		t.Error("cached dimension differs from cold")
	}
	if d1.MaxGamers < 1 {
		t.Errorf("MaxGamers = %d", d1.MaxGamers)
	}
	// A different bound is a different question.
	if _, cached, err := e.Dimension(sc, 30); err != nil || cached {
		t.Fatalf("different bound: cached=%v err=%v", cached, err)
	}
}

func TestBatchOrderDuplicatesAndErrors(t *testing.T) {
	e := NewEngine(4, 0)
	bad := scenario.Default()
	bad.ErlangOrder = 0
	scs := []scenario.Scenario{
		testScenario(0.5),
		bad,
		testScenario(0.3),
		testScenario(0.5), // duplicate of item 0
	}
	res := e.Batch(scs)
	if len(res.Results) != 4 {
		t.Fatalf("got %d results", len(res.Results))
	}
	if res.Results[0].Result == nil || res.Results[2].Result == nil || res.Results[3].Result == nil {
		t.Fatal("valid scenarios failed")
	}
	if res.Results[1].Error == "" || res.Results[1].Result != nil {
		t.Error("invalid scenario did not produce an error item")
	}
	if *res.Results[0].Result != *res.Results[3].Result {
		t.Error("duplicate scenarios answered differently")
	}
	if res.Cached != 1 {
		t.Errorf("Cached = %d, want 1 (the intra-batch duplicate)", res.Cached)
	}
	// The whole batch again: every valid item is now a hit.
	res = e.Batch(scs)
	if res.Cached != 3 {
		t.Errorf("second run Cached = %d, want 3", res.Cached)
	}
	if e.Batch(nil).Results == nil || len(e.Batch(nil).Results) != 0 {
		t.Error("empty batch should return an empty, non-nil result list")
	}
}

// TestEngineDeterministicAcrossJobs pins the service determinism contract:
// every engine answer is byte-identical whatever the worker count.
func TestEngineDeterministicAcrossJobs(t *testing.T) {
	type answers struct {
		rtt   RTTResult
		sweep SweepResult
		dim   DimensionResult
		batch BatchResult
	}
	collect := func(jobs int) answers {
		e := NewEngine(jobs, 0)
		var a answers
		var err error
		if a.rtt, _, err = e.RTT(testScenario(0.5)); err != nil {
			t.Fatal(err)
		}
		if a.sweep, _, err = e.Sweep(scenario.Default(), 0.1, 0.8, 0.1); err != nil {
			t.Fatal(err)
		}
		if a.dim, _, err = e.Dimension(scenario.Default(), 50); err != nil {
			t.Fatal(err)
		}
		a.batch = e.Batch([]scenario.Scenario{
			testScenario(0.2), testScenario(0.4), testScenario(0.6), testScenario(0.2),
		})
		return a
	}
	ref, _ := json.Marshal(collect(1))
	for _, jobs := range []int{2, 8} {
		got, _ := json.Marshal(collect(jobs))
		if string(ref) != string(got) {
			t.Errorf("jobs=%d answers differ from jobs=1:\n%s\n%s", jobs, ref, got)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// Each RTT stores two entries (full result + sweep-point slice), so a
	// capacity of 4 holds exactly two scenarios.
	e := NewEngine(1, 4)
	a, b, c := testScenario(0.2), testScenario(0.3), testScenario(0.4)
	for _, sc := range []scenario.Scenario{a, b, c} {
		if _, _, err := e.RTT(sc); err != nil {
			t.Fatal(err)
		}
	}
	if entries := e.CacheStats().Entries; entries != 4 {
		t.Fatalf("cache holds %d entries, want 4", entries)
	}
	// a was least recently used: evicted, so it recomputes.
	if _, cached, _ := e.RTT(a); cached {
		t.Error("evicted entry still answered from cache")
	}
	// c is fresh.
	if _, cached, _ := e.RTT(c); !cached {
		t.Error("recent entry missed")
	}
}

func TestMetricsRender(t *testing.T) {
	m := metrics.NewRecorder()
	m.Observe("/v1/rtt", 10*time.Millisecond, false, false)
	m.Observe("/v1/rtt", time.Millisecond, true, false)
	m.Observe("/v1/rtt", time.Millisecond, false, true)
	var p metrics.Page
	m.Collect(&p)
	out := p.String()
	for _, want := range []string{
		`fpsping_requests_total{endpoint="/v1/rtt"} 3`,
		`fpsping_request_errors_total{endpoint="/v1/rtt"} 1`,
		`fpsping_cache_hits_total{endpoint="/v1/rtt"} 1`,
		`fpsping_request_latency_seconds_count{endpoint="/v1/rtt"} 3`,
		// The global aggregate renders the same families unlabeled.
		"fpsping_requests_total 3\n",
		"fpsping_cache_hits_total 1\n",
		"fpsping_request_latency_seconds_count 3\n",
		`fpsping_request_latency_seconds{quantile="0.5"}`,
		`fpsping_uptime_seconds`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestBatchCachedAllocs pins the allocations of a cached 16-item batch on
// a one-worker engine at 112: each item's canonical key is built once, in
// Batch, and handed to the evaluation.
func TestBatchCachedAllocs(t *testing.T) {
	scs := make([]scenario.Scenario, 16)
	for i := range scs {
		scs[i] = testScenario(0.05 + 0.05*float64(i))
	}
	e := NewEngine(1, 0)
	e.Batch(scs)
	if n := testing.AllocsPerRun(20, func() { e.Batch(scs) }); n != 112 {
		t.Errorf("a cached 16-item batch makes %v allocations, want 112", n)
	}
}

// TestBatchLarge exercises the fan-out path with more scenarios than
// workers, all distinct, at several worker counts.
func TestBatchLarge(t *testing.T) {
	var ref []byte
	for _, jobs := range []int{1, 4} {
		e := NewEngine(jobs, 0)
		scs := make([]scenario.Scenario, 24)
		for i := range scs {
			scs[i] = testScenario(0.05 + 0.03*float64(i))
		}
		res := e.Batch(scs)
		for i, item := range res.Results {
			if item.Error != "" {
				t.Fatalf("item %d: %s", i, item.Error)
			}
		}
		data, _ := json.Marshal(res)
		if ref == nil {
			ref = data
		} else if string(ref) != string(data) {
			t.Errorf("jobs=%d batch differs from jobs=1", jobs)
		}
	}
}

func ExampleEngine_RTT() {
	e := NewEngine(1, 0)
	sc := scenario.Default()
	sc.Load = 0.5
	res, _, err := e.RTT(sc)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("p%g ping at 50%% load: %.2f ms\n", res.Quantile, res.QuantileMs)
	// Output: p0.99999 ping at 50% load: 59.24 ms
}
