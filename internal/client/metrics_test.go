package client

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"fpsping/internal/metrics"
	"fpsping/internal/stats"
)

// latencyOf is the summary the daemon reports for the given latencies in
// seconds: the Welford sum and the P² estimates, which are exact order
// statistics below five observations.
func latencyOf(xs ...float64) EndpointMetrics {
	sum := stats.Describe(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return EndpointMetrics{
		LatencySumSeconds: sum.Mean() * float64(sum.Count()),
		LatencyCount:      uint64(len(xs)),
		Quantiles: map[string]float64{
			"0.5":  stats.SortedQuantile(sorted, 0.5),
			"0.9":  stats.SortedQuantile(sorted, 0.9),
			"0.99": stats.SortedQuantile(sorted, 0.99),
		},
	}
}

// TestParseMetricsRoundTrip renders a daemon page and a router page from
// known counts and latencies through the metrics package's writers and
// parses each back into the snapshot it was rendered from.
func TestParseMetricsRoundTrip(t *testing.T) {
	rec := metrics.NewRecorder()
	rec.Observe("/v1/rtt", 2*time.Millisecond, false, false)
	rec.Observe("/v1/rtt", 3*time.Millisecond, true, false)
	rec.Observe("/v1/sweep", 40*time.Millisecond, false, true)
	var daemon metrics.Page
	rec.Collect(&daemon)
	daemon.Add(metrics.CacheEntries, "", 5)
	daemon.Add(metrics.CacheLookupHits, "", uint64(1))
	daemon.Add(metrics.CacheLookupMisses, "", uint64(2))
	daemon.Add(metrics.CacheEvictions, "", uint64(0))

	global, rtt, sweep := latencyOf(0.002, 0.003, 0.04), latencyOf(0.002, 0.003), latencyOf(0.04)
	global.Requests, global.Errors, global.CacheHits = 3, 1, 1
	rtt.Requests, rtt.CacheHits = 2, 1
	sweep.Requests, sweep.Errors = 1, 1
	wantDaemon := MetricsSnapshot{
		Global:    global,
		Endpoints: map[string]EndpointMetrics{"/v1/rtt": rtt, "/v1/sweep": sweep},
		Cache:     CacheMetrics{Entries: 5, LookupHits: 1, LookupMisses: 2},
	}
	got, err := ParseMetrics([]byte(daemon.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.UptimeSeconds < 0 || got.UptimeSeconds > 60 {
		t.Errorf("daemon uptime %g", got.UptimeSeconds)
	}
	wantDaemon.UptimeSeconds = got.UptimeSeconds // wall-clock
	if !reflect.DeepEqual(got, wantDaemon) {
		t.Errorf("daemon page round trip:\n got %+v\nwant %+v\npage:\n%s", got, wantDaemon, daemon.String())
	}

	// The router exports per-endpoint counters and its own families, but no
	// global aggregate, latency summary or cache: those stay zero.
	var router metrics.Page
	router.Add(metrics.Uptime, "", 1500*time.Millisecond)
	for ep, n := range map[string]uint64{"/v1/dimension": 0, "/v1/rtt": 6, "/v1/sweep": 2} {
		router.Add(metrics.Requests, ep, n)
		router.Add(metrics.RequestErrors, ep, n/2)
		router.Add(metrics.CacheHits, ep, n/3)
	}
	router.Add(metrics.RouterReplicas, "", 2)
	router.Add(metrics.ReplicaUp, "http://a:1", true)
	router.Add(metrics.BreakerOpen, "http://a:1", false)
	wantRouter := MetricsSnapshot{
		UptimeSeconds: 1.5,
		Endpoints: map[string]EndpointMetrics{
			"/v1/dimension": {},
			"/v1/rtt":       {Requests: 6, Errors: 3, CacheHits: 2},
			"/v1/sweep":     {Requests: 2, Errors: 1},
		},
	}
	if got, err := ParseMetrics([]byte(router.String())); err != nil || !reflect.DeepEqual(got, wantRouter) {
		t.Errorf("router page round trip: %v\n got %+v\nwant %+v", err, got, wantRouter)
	}
}

// TestParseMetricsUntypedPage pins version skew: a daemon page from the
// release before the metrics registry (request families without # TYPE
// lines, one block per endpoint) still parses to the snapshot that
// release's own parser produced from it. The page also carries the retired
// cache shard families, which the parser skips.
func TestParseMetricsUntypedPage(t *testing.T) {
	page, err := os.ReadFile("testdata/daemon-page-untyped.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/daemon-page-untyped.json")
	if err != nil {
		t.Fatal(err)
	}
	var want MetricsSnapshot
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetrics(page)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("untyped page:\n got %+v\nwant %+v", got, want)
	}
}

// snapAt is a snapshot of one daemon at the given uptime whose /v1/rtt
// endpoint has served req requests, hits of them from cache.
func snapAt(uptime float64, req, hits uint64) MetricsSnapshot {
	return MetricsSnapshot{
		UptimeSeconds: uptime,
		Endpoints:     map[string]EndpointMetrics{"/v1/rtt": {Requests: req, CacheHits: hits}},
	}
}

func TestCacheHitRatioDeltaAcrossRestarts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after MetricsSnapshot
		ratio         float64
		ok, restarted bool
	}{
		{"steady", snapAt(10, 100, 40), snapAt(20, 200, 130), 0.9, true, false},
		{"cumulative from zero", MetricsSnapshot{}, snapAt(5, 10, 5), 0.5, true, false},
		{"no traffic", snapAt(10, 100, 40), snapAt(20, 100, 40), 0, false, false},
		// The daemon restarted between the scrapes and served 30 requests,
		// 25 from cache: hitA-hitB would wrap around to ~1.8e19.
		{"counters reset", snapAt(10, 100, 40), snapAt(3, 30, 25), 0, false, true},
		// More requests after the restart than before it: only the uptime
		// betrays the restart.
		{"uptime reset", snapAt(100, 10, 2), snapAt(50, 400, 300), 0, false, true},
		{"hits reset alone", snapAt(10, 100, 40), snapAt(20, 150, 10), 0, false, true},
	} {
		ratio, ok := CacheHitRatioDelta(tc.before, tc.after)
		if ratio != tc.ratio || ok != tc.ok {
			t.Errorf("%s: CacheHitRatioDelta = %g, %v; want %g, %v", tc.name, ratio, ok, tc.ratio, tc.ok)
		}
		if got := Restarted(tc.before, tc.after); got != tc.restarted {
			t.Errorf("%s: Restarted = %v, want %v", tc.name, got, tc.restarted)
		}
	}
	// A counter of an endpoint outside the ratio's set going down is a
	// restart too.
	before, after := snapAt(10, 100, 40), snapAt(20, 200, 130)
	before.Endpoints["/v1/models"] = EndpointMetrics{Errors: 3}
	if _, ok := CacheHitRatioDelta(before, after); ok || !Restarted(before, after) {
		t.Error("a /v1/models error counter that went down was not taken for a restart")
	}
}
