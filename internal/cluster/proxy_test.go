package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// fakeReplica is a scripted stand-in for fpspingd: answers /v1/rtt with a
// body identifying itself, /v1/rtt:batch with per-item markers, /healthz
// with a configurable readiness, and counts what it receives.
type fakeReplica struct {
	srv      *httptest.Server
	id       int
	rtts     atomic.Int64
	batches  atomic.Int64
	ready    atomic.Bool
	readyGen atomic.Uint64
	fail     atomic.Bool  // answer 500 on model endpoints
	cache    atomic.Value // string: CacheHeader value to claim
}

func newFakeReplica(t *testing.T, id int) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	f.ready.Store(true)
	f.readyGen.Store(1)
	f.cache.Store("miss")
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/rtt", func(w http.ResponseWriter, r *http.Request) {
		f.rtts.Add(1)
		if f.fail.Load() {
			http.Error(w, `{"error":"scripted failure"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(service.CacheHeader, f.cache.Load().(string))
		fmt.Fprintf(w, `{"replica":%d}`, f.id)
	})
	mux.HandleFunc("/v1/rtt:batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		var req service.BatchRequest
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, `{"error":"bad batch"}`, http.StatusBadRequest)
			return
		}
		res := service.BatchResult{Results: make([]service.BatchItem, len(req.Scenarios))}
		for i, raw := range req.Scenarios {
			sc, err := scenario.FromJSON(raw)
			if err != nil {
				http.Error(w, `{"error":"bad scenario"}`, http.StatusBadRequest)
				return
			}
			res.Results[i] = service.BatchItem{Error: fmt.Sprintf("marker replica=%d gamers=%g", f.id, sc.Gamers)}
		}
		res.Cached = len(req.Scenarios) - 1 // distinct first item computes, rest "cached"
		w.Header().Set("Content-Type", "application/json")
		data, _ := json.Marshal(res)
		w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if !f.ready.Load() {
			status = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.Health{Status: status, Ready: f.ready.Load(), ReadyGeneration: f.readyGen.Load()})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// newTestCluster boots n fake replicas and a router over them.
func newTestCluster(t *testing.T, n int, mutate func(*RouterConfig)) ([]*fakeReplica, *Router, *httptest.Server) {
	t.Helper()
	fakes := make([]*fakeReplica, n)
	names := make([]string, n)
	for i := range fakes {
		fakes[i] = newFakeReplica(t, i)
		names[i] = fakes[i].srv.URL
	}
	cfg := RouterConfig{Replicas: names, Timeout: 5 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return fakes, rt, front
}

// keyFor computes the canonical routing key of a gamers=N scenario.
func keyFor(t *testing.T, gamers int) string {
	t.Helper()
	sc, err := scenario.FromQuery(url.Values{"gamers": {fmt.Sprint(gamers)}})
	if err != nil {
		t.Fatal(err)
	}
	return sc.Canonical()
}

func get(t *testing.T, rawURL string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestRouterAffinityRouting checks that every spelling of one scenario lands
// on the replica the ring declares its owner, with the replica identified in
// the response header.
func TestRouterAffinityRouting(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 3, nil)
	for gamers := 60; gamers < 70; gamers++ {
		owner := rt.ring.Owner(keyFor(t, gamers))
		before := fakes[owner].rtts.Load()
		spellings := []string{
			fmt.Sprintf("%s/v1/rtt?gamers=%d", front.URL, gamers),
			fmt.Sprintf("%s/v1/rtt?gamers=%d.000", front.URL, gamers),
		}
		for _, u := range spellings {
			resp, body := get(t, u)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, body %s", u, resp.StatusCode, body)
			}
			if want := fmt.Sprintf(`{"replica":%d}`, owner); body != want {
				t.Errorf("GET %s answered by %s, want owner %d", u, body, owner)
			}
			if got := resp.Header.Get(ReplicaHeader); got != fakes[owner].srv.URL {
				t.Errorf("GET %s: %s = %q, want %q", u, ReplicaHeader, got, fakes[owner].srv.URL)
			}
		}
		if got := fakes[owner].rtts.Load() - before; got != 2 {
			t.Errorf("gamers=%d: owner received %d requests, want 2", gamers, got)
		}
	}
}

// TestRouterBatchSplitMerge drives a batch with items owned by different
// replicas (and an intra-batch duplicate) through the router: results must
// come back in request order, each item answered by its owning replica, with
// Cached summed over sub-batches.
func TestRouterBatchSplitMerge(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 3, nil)
	// Pick gamer counts spanning at least two distinct owners. The ring
	// hashes the fakes' URLs, whose ports change from run to run, so five
	// counts can all land on one owner: extend the list until they do not.
	gamers := []int{60, 61, 62, 63, 64}
	owners := make(map[int]bool)
	for _, g := range gamers {
		owners[rt.ring.Owner(keyFor(t, g))] = true
	}
	for g := 65; len(owners) < 2 && g < 200; g++ {
		gamers = append(gamers, g)
		owners[rt.ring.Owner(keyFor(t, g))] = true
	}
	if len(owners) < 2 {
		t.Fatal("test scenarios all map to one owner; pick different gamer counts")
	}
	gamers = append(gamers, gamers[0]) // last item duplicates the first
	var req service.BatchRequest
	for _, g := range gamers {
		req.Scenarios = append(req.Scenarios, json.RawMessage(fmt.Sprintf(`{"gamers":%d}`, g)))
	}
	payload, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/rtt:batch", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var res service.BatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(gamers) {
		t.Fatalf("batch returned %d results, want %d", len(res.Results), len(gamers))
	}
	for i, g := range gamers {
		owner := rt.ring.Owner(keyFor(t, g))
		want := fmt.Sprintf("marker replica=%d gamers=%d", owner, g)
		if res.Results[i].Error != want {
			t.Errorf("item %d: %q, want %q (owner routing or order broken)", i, res.Results[i].Error, want)
		}
	}
	// Each contacted replica reported len(sub)-1 cached; the merged count is
	// the sum. Total batches forwarded equals the number of distinct owners.
	var batches int64
	for _, f := range fakes {
		batches += f.batches.Load()
	}
	if batches != int64(len(owners)) {
		t.Errorf("%d sub-batches forwarded, want %d (one per owning replica)", batches, len(owners))
	}
	if want := len(gamers) - len(owners); res.Cached != want {
		t.Errorf("merged Cached = %d, want %d", res.Cached, want)
	}
	// The duplicate must share its first occurrence's sub-batch: same owner.
	if res.Results[0].Error != res.Results[len(gamers)-1].Error {
		t.Errorf("duplicate scenario split across replicas: %q vs %q", res.Results[0].Error, res.Results[len(gamers)-1].Error)
	}
}

// TestRouterFailover kills a key's owning replica and checks the request is
// answered by the next candidate in ring order.
func TestRouterFailover(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 3, nil)
	key := keyFor(t, 64)
	owners := rt.ring.Owners(key, 0)
	fakes[owners[0]].srv.Close() // dead, not draining: connections refused
	resp, body := get(t, front.URL+"/v1/rtt?gamers=64")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover GET status %d: %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf(`{"replica":%d}`, owners[1]); body != want {
		t.Errorf("failover answered by %s, want next owner %d", body, owners[1])
	}
}

// TestRouterBreaker checks the circuit opens after the configured number of
// consecutive failures and stops consuming attempts on the broken replica.
func TestRouterBreaker(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 3, func(cfg *RouterConfig) {
		cfg.BreakerFailures = 2
		cfg.BreakerCooldown = time.Hour
	})
	key := keyFor(t, 64)
	owners := rt.ring.Owners(key, 0)
	fakes[owners[0]].fail.Store(true)
	for i := 0; i < 5; i++ {
		resp, body := get(t, front.URL+"/v1/rtt?gamers=64")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s (failover should mask the 500s)", i, resp.StatusCode, body)
		}
		if want := fmt.Sprintf(`{"replica":%d}`, owners[1]); body != want {
			t.Errorf("request %d answered by %s, want %d", i, body, owners[1])
		}
	}
	// The primary absorbed exactly BreakerFailures attempts before the
	// circuit opened; the remaining requests went straight to the secondary.
	if got := fakes[owners[0]].rtts.Load(); got != 2 {
		t.Errorf("broken primary received %d requests, want 2 (breaker did not open)", got)
	}
}

// TestRouterDrainRouting marks one replica draining via its /healthz and
// checks the router routes around it while reporting it alive.
func TestRouterDrainRouting(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 3, nil)
	key := keyFor(t, 64)
	owners := rt.ring.Owners(key, 0)
	fakes[owners[0]].ready.Store(false)
	fakes[owners[0]].readyGen.Add(1)
	rt.CheckReplicas(context.Background())

	resp, body := get(t, front.URL+"/v1/rtt?gamers=64")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain GET status %d: %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf(`{"replica":%d}`, owners[1]); body != want {
		t.Errorf("draining owner still serving: got %s, want %d", body, owners[1])
	}

	// The router's own health must tell draining (alive, not ready, bumped
	// generation) apart from dead.
	hresp, hbody := get(t, front.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz status %d", hresp.StatusCode)
	}
	var rh RouterHealth
	if err := json.Unmarshal([]byte(hbody), &rh); err != nil {
		t.Fatal(err)
	}
	if rh.Routable != 2 {
		t.Errorf("routable = %d, want 2", rh.Routable)
	}
	for _, rep := range rh.Replicas {
		if rep.Name != fakes[owners[0]].srv.URL {
			continue
		}
		if !rep.Alive || rep.Ready {
			t.Errorf("draining replica reported alive=%v ready=%v, want alive and not ready", rep.Alive, rep.Ready)
		}
		if rep.ReadyGeneration != 2 {
			t.Errorf("draining replica generation %d, want 2", rep.ReadyGeneration)
		}
	}
}

// TestRouterDeadVsDraining checks CheckReplicas distinguishes a closed
// listener (dead) from a draining daemon (alive, not ready).
func TestRouterDeadVsDraining(t *testing.T) {
	fakes, rt, _ := newTestCluster(t, 3, nil)
	fakes[0].srv.Close()
	fakes[1].ready.Store(false)
	rt.CheckReplicas(context.Background())
	if rt.replicas[0].alive.Load() {
		t.Error("closed replica still reported alive")
	}
	if !rt.replicas[1].alive.Load() || rt.replicas[1].ready.Load() {
		t.Errorf("draining replica: alive=%v ready=%v, want alive and not ready",
			rt.replicas[1].alive.Load(), rt.replicas[1].ready.Load())
	}
	if !rt.replicas[2].alive.Load() || !rt.replicas[2].ready.Load() {
		t.Error("healthy replica misreported")
	}
}

// TestRouterBoundedLoadSpill exercises the bounded-load rotation directly:
// an owner over the in-flight ceiling yields to the next candidate.
func TestRouterBoundedLoadSpill(t *testing.T) {
	_, rt, _ := newTestCluster(t, 3, func(cfg *RouterConfig) { cfg.LoadFactor = 2 })
	rt.replicas[0].inflight.Store(10)
	order := rt.order([]int{0, 1, 2}, time.Now())
	// total in-flight 10, 3 healthy replicas: bound = ceil(2*11/3) = 8; the
	// owner at 10 is over it, so the next candidate takes the request.
	if order[0] != 1 {
		t.Errorf("order = %v, want spill to replica 1", order)
	}
	if rt.spills.Load() == 0 {
		t.Error("spill not counted")
	}
	// Under the bound, the owner keeps its traffic.
	rt.replicas[0].inflight.Store(1)
	if order := rt.order([]int{0, 1, 2}, time.Now()); order[0] != 0 {
		t.Errorf("order = %v, owner under the bound should stay first", order)
	}
}

// TestRouterNoLoadFactorNoSpill checks the default (LoadFactor 0) never
// reroutes: CI's affinity assertion depends on it.
func TestRouterNoLoadFactorNoSpill(t *testing.T) {
	_, rt, _ := newTestCluster(t, 3, nil)
	rt.replicas[0].inflight.Store(1 << 30)
	if order := rt.order([]int{0, 1, 2}, time.Now()); order[0] != 0 {
		t.Errorf("order = %v, LoadFactor 0 must not spill", order)
	}
}

// TestRouterMetricsDaemonCompatible checks the router's /metrics speak the
// daemon's dialect: per-endpoint request and cache-hit counters a load
// generator can gate on, the global series and the latency summaries.
func TestRouterMetricsDaemonCompatible(t *testing.T) {
	fakes, _, front := newTestCluster(t, 3, nil)
	const n = 6
	hits := 0
	for i := 0; i < n; i++ {
		cache := "miss"
		if i > 0 {
			cache = "hit"
			hits++
		}
		for _, f := range fakes {
			f.cache.Store(cache)
		}
		get(t, fmt.Sprintf("%s/v1/rtt?gamers=64", front.URL))
	}
	// The uptime gauge renders whole milliseconds, and six loopback
	// requests can finish within half of one; age the router past a
	// millisecond so the gauge reads above zero.
	time.Sleep(2 * time.Millisecond)
	_, metrics := get(t, front.URL+"/metrics")
	wantReq := `fpsping_requests_total{endpoint="/v1/rtt"} 6`
	wantHits := fmt.Sprintf(`fpsping_cache_hits_total{endpoint="/v1/rtt"} %d`, hits)
	for _, want := range []string{wantReq, wantHits, "fpsrouter_replicas 3"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The daemon's parser reads the router page: the routed endpoint's
	// counters and latency summary, the same global series, and no cache.
	// Endpoints not yet requested are not listed.
	snap, err := client.ParseMetrics([]byte(metrics))
	if err != nil {
		t.Fatal(err)
	}
	rtt := snap.Endpoints["/v1/rtt"]
	if len(snap.Endpoints) != 1 || rtt.Requests != n || rtt.Errors != 0 || rtt.CacheHits != uint64(hits) ||
		rtt.LatencyCount != n || len(rtt.Quantiles) != 3 || !reflect.DeepEqual(snap.Global, rtt) ||
		!reflect.DeepEqual(snap.Cache, client.CacheMetrics{}) || snap.UptimeSeconds <= 0 {
		t.Errorf("parsed router page = %+v", snap)
	}
}

// TestRouterAllDead checks the router answers 502 with the error chain when
// no replica is reachable, and its /healthz flips to 503.
func TestRouterAllDead(t *testing.T) {
	fakes, rt, front := newTestCluster(t, 2, nil)
	for _, f := range fakes {
		f.srv.Close()
	}
	rt.CheckReplicas(context.Background())
	resp, _ := get(t, front.URL+"/v1/rtt?gamers=64")
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("all-dead GET status %d, want 502", resp.StatusCode)
	}
	hresp, _ := get(t, front.URL+"/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("all-dead healthz status %d, want 503", hresp.StatusCode)
	}
}

// TestNewRouterRejects covers configuration validation.
func TestNewRouterRejects(t *testing.T) {
	cases := []RouterConfig{
		{},
		{Replicas: []string{"not-a-url"}},
		{Replicas: []string{"ftp://x"}},
		{Replicas: []string{"http://a", "http://a"}},
		{Replicas: []string{"http://a"}, LoadFactor: 0.5},
		{Replicas: []string{"http://a"}, Policy: "nonsense"},
	}
	for i, cfg := range cases {
		if _, err := NewRouter(cfg); err == nil {
			t.Errorf("case %d: NewRouter accepted %+v", i, cfg)
		}
	}
}
