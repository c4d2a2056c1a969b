package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fpsping/internal/service"
)

// realCluster boots n genuine fpspingd engines (service.Server handlers over
// httptest) plus a router, returning the engines for compute accounting.
func realCluster(t *testing.T, n int, policy string) ([]*service.Engine, *Router, *httptest.Server) {
	t.Helper()
	engines := make([]*service.Engine, n)
	names := make([]string, n)
	for i := range engines {
		engines[i] = service.NewEngine(2, 256)
		srv := httptest.NewServer(service.NewServer("127.0.0.1:0", engines[i]).Handler())
		t.Cleanup(srv.Close)
		names[i] = srv.URL
	}
	rt, err := NewRouter(RouterConfig{Replicas: names, Policy: policy, Seed: 7, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return engines, rt, front
}

// TestClusterEndToEndAffinity is the in-process version of the CI cluster
// gate: real engines behind the router, a hot scenario mix, and the three
// assertions — zero errors, a high aggregate hit ratio, and every canonical
// key computed on exactly one replica.
func TestClusterEndToEndAffinity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine end-to-end test")
	}
	engines, _, front := realCluster(t, 3, PolicyAffinity)
	const keys = 8
	const rounds = 5
	errors := 0
	hits := 0
	bodies := make(map[int]string)
	for round := 0; round < rounds; round++ {
		for k := 0; k < keys; k++ {
			url := fmt.Sprintf("%s/v1/rtt?gamers=%d", front.URL, 60+k)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errors++
				continue
			}
			if resp.Header.Get(service.CacheHeader) == "hit" {
				hits++
			}
			// Byte-identical answers regardless of which round (cache state)
			// answered — the single-daemon invariant must survive the tier.
			if prev, ok := bodies[k]; ok && prev != string(body) {
				t.Errorf("key %d: response changed across rounds:\n%s\nvs\n%s", k, prev, body)
			}
			bodies[k] = string(body)
		}
	}
	if errors != 0 {
		t.Errorf("%d request errors through the router", errors)
	}
	// First round computes each key once; all later rounds must hit.
	wantHits := keys * (rounds - 1)
	if hits < wantHits {
		t.Errorf("hits = %d, want >= %d (affinity should make repeats hit)", hits, wantHits)
	}
	// Affinity assertion: total computes across replicas equals the distinct
	// key count — no key computed on two replicas.
	var computes uint64
	for _, e := range engines {
		computes += e.Computes()
	}
	if computes != keys {
		t.Errorf("cluster computed %d times for %d distinct keys; affinity must compute each key on exactly one replica", computes, keys)
	}
}

// TestClusterAffinityBeatsRandomLive reproduces the simulator's ordering on
// real engines: a working set that fits the cluster's combined cache only
// when partitioned. Each replica's cache holds 8 entries; the key set is
// built from the affinity ring so each replica owns exactly 8 keys. Under
// affinity every repeat hits; under random routing the same 24 keys spray
// over all three 8-entry LRUs and churn.
func TestClusterAffinityBeatsRandomLive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine end-to-end test")
	}
	const perReplica = 8
	build := func(policy string) (*Router, *httptest.Server) {
		names := make([]string, 3)
		for i := range names {
			// One RTT compute stores two cache entries (the result plus its
			// sweep point), so "holds perReplica scenarios" means
			// capacity 2*perReplica.
			eng := service.NewEngine(2, 2*perReplica)
			srv := httptest.NewServer(service.NewServer("127.0.0.1:0", eng).Handler())
			t.Cleanup(srv.Close)
			names[i] = srv.URL
		}
		rt, err := NewRouter(RouterConfig{Replicas: names, Policy: policy, Seed: 7, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		t.Cleanup(front.Close)
		return rt, front
	}
	affRouter, affFront := build(PolicyAffinity)
	// Pick gamer counts until every replica owns exactly perReplica keys on
	// the affinity ring (the random cluster ignores keys, so only this ring
	// matters for fit).
	var gamers []int
	counts := make([]int, 3)
	for g := 100; len(gamers) < 3*perReplica && g < 10000; g++ {
		owner := affRouter.ring.Owner(keyFor(t, g))
		if counts[owner] < perReplica {
			counts[owner]++
			gamers = append(gamers, g)
		}
	}
	if len(gamers) != 3*perReplica {
		t.Fatalf("could not assemble a balanced key set: %v", counts)
	}
	drive := func(front *httptest.Server) (hits, total int) {
		const rounds = 4
		for round := 0; round < rounds; round++ {
			for _, g := range gamers {
				resp, err := http.Get(fmt.Sprintf("%s/v1/rtt?gamers=%d", front.URL, g))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d", resp.StatusCode)
				}
				total++
				if resp.Header.Get(service.CacheHeader) == "hit" {
					hits++
				}
			}
		}
		return hits, total
	}
	affHits, affTotal := drive(affFront)
	_, rndFront := build(PolicyRandom)
	rndHits, rndTotal := drive(rndFront)
	affRatio := float64(affHits) / float64(affTotal)
	rndRatio := float64(rndHits) / float64(rndTotal)
	t.Logf("live hit ratios: affinity %.4f, random %.4f", affRatio, rndRatio)
	// Affinity fits every shard: all rounds after the first hit (0.75 here).
	if want := 0.70; affRatio < want {
		t.Errorf("live affinity hit ratio %.4f below %.2f", affRatio, want)
	}
	if affRatio <= rndRatio {
		t.Errorf("live affinity hit ratio %.4f does not beat random %.4f — simulator ordering not reproduced", affRatio, rndRatio)
	}
}

// TestClusterBatchThroughRealEngines checks split/merge against genuine
// engine semantics: results in order, byte-identical to a direct single
// engine, and duplicate items counted cached.
func TestClusterBatchThroughRealEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine end-to-end test")
	}
	_, _, front := realCluster(t, 3, PolicyAffinity)
	var req service.BatchRequest
	gamers := []int{60, 61, 62, 60, 63, 61}
	for _, g := range gamers {
		req.Scenarios = append(req.Scenarios, json.RawMessage(fmt.Sprintf(`{"gamers":%d}`, g)))
	}
	payload, _ := json.Marshal(req)
	do := func(base string) service.BatchResult {
		resp, err := http.Post(base+"/v1/rtt:batch", "application/json", bytes.NewReader(payload))
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
		return res
	}
	res := do(front.URL)
	if len(res.Results) != len(gamers) {
		t.Fatalf("%d results, want %d", len(res.Results), len(gamers))
	}
	// Reference: one standalone engine answering the same batch.
	ref := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(2, 256)).Handler())
	defer ref.Close()
	want := do(ref.URL)
	for i := range want.Results {
		got, _ := json.Marshal(res.Results[i])
		exp, _ := json.Marshal(want.Results[i])
		if string(got) != string(exp) {
			t.Errorf("item %d differs through the cluster:\n%s\nvs standalone\n%s", i, got, exp)
		}
	}
	// The two duplicates are answered from cache wherever they land.
	if res.Cached < 2 {
		t.Errorf("cluster batch Cached = %d, want >= 2 (duplicates must dedup)", res.Cached)
	}
}
