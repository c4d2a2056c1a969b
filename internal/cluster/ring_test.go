package cluster

import (
	"fmt"
	"net/url"
	"runtime"
	"testing"

	"fpsping/internal/service"
)

// testReplicas is the canonical 3-replica naming used across the tests.
var testReplicas = []string{"http://127.0.0.1:7911", "http://127.0.0.1:7912", "http://127.0.0.1:7913"}

// TestRingPinnedOwners pins key→replica assignments to literal values: the
// ring hash is a fixed published function, so these must hold on every
// platform, Go version and process run. A failure here means persisted
// assignments (warm caches on replicas) would be scrambled by a deploy.
func TestRingPinnedOwners(t *testing.T) {
	ring, err := NewRing(testReplicas, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"alpha":   0,
		"bravo":   2,
		"charlie": 1,
		"delta":   2,
		"echo":    2,
	}
	for key, owner := range want {
		if got := ring.Owner(key); got != owner {
			t.Errorf("Owner(%q) = %d, pinned %d", key, got, owner)
		}
	}
}

// TestRingStableAcrossRebuilds rebuilds the ring from the same configuration
// (as a restarted router would) under different GOMAXPROCS and checks every
// assignment agrees: ownership is a pure function of configuration.
func TestRingStableAcrossRebuilds(t *testing.T) {
	build := func(procs int) *Ring {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		ring, err := NewRing(testReplicas, DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		return ring
	}
	a := build(1)
	b := build(4)
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %d under GOMAXPROCS=1 rebuild, %d under GOMAXPROCS=4", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestRingEquivalentSpellingsRouteIdentically is the canonical-key invariant
// end to end: every spelling of the same scenario (JSON vs query, explicit
// defaults vs omitted, load shorthand vs gamer count, d=0 vs d=t) must
// produce the same routing key, hence the same owning replica.
func TestRingEquivalentSpellingsRouteIdentically(t *testing.T) {
	ring, err := NewRing(testReplicas, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	spellings := []struct {
		name  string
		query string
		body  string
	}{
		{name: "json default-q", body: `{"gamers":64,"pc":80,"ps":125,"t":40,"rup":128,"rdown":1024,"c":5000,"k":9}`},
		{name: "json explicit-q", body: `{"gamers":64,"pc":80,"ps":125,"t":40,"rup":128,"rdown":1024,"c":5000,"k":9,"q":0.99999}`},
		{name: "json d-equals-t", body: `{"gamers":64,"pc":80,"ps":125,"t":40,"d":40,"rup":128,"rdown":1024,"c":5000,"k":9}`},
		{name: "query", query: "gamers=64"},
		{name: "query trailing-zeros", query: "gamers=64.000&t=40.0"},
	}
	var key string
	var owner int
	for i, sp := range spellings {
		values, err := url.ParseQuery(sp.query)
		if err != nil {
			t.Fatal(err)
		}
		req, err := service.DecodeRTT(values, []byte(sp.body))
		if err != nil {
			t.Fatalf("%s: the daemon's decoder rejected a valid spelling: %v", sp.name, err)
		}
		got := req.Scenario.Canonical()
		if i == 0 {
			key, owner = got, ring.Owner(got)
			continue
		}
		if got != key {
			t.Errorf("%s: canonical key %q != %q", sp.name, got, key)
		}
		if ring.Owner(got) != owner {
			t.Errorf("%s: owner %d != %d", sp.name, ring.Owner(got), owner)
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing contract: growing the
// cluster by one replica remaps roughly keys/(N+1) keys — each key either
// keeps its owner or moves to the new replica, never between old replicas.
func TestRingMinimalDisruption(t *testing.T) {
	const keys = 20000
	old, err := NewRing(testReplicas, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := NewRing(append(append([]string(nil), testReplicas...), "http://127.0.0.1:7914"), DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	moved, movedElsewhere := 0, 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("scenario-%d", i)
		a, b := old.Owner(key), grown.Owner(key)
		if old.replicas[a] == grown.replicas[b] {
			continue
		}
		moved++
		if b != 3 {
			movedElsewhere++
		}
	}
	// Fair share for the new replica is keys/4; allow 50% slack for vnode
	// arc-length variance at 64 vnodes.
	limit := keys/4 + keys/8
	if moved > limit {
		t.Errorf("adding one replica moved %d/%d keys, over the %d bound", moved, keys, limit)
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between surviving replicas; consistent hashing must only move keys to the new replica", movedElsewhere)
	}
}

// TestRingBalance guards the hash's avalanche quality: structured key
// families (shared prefixes, trailing counters — exactly what canonical
// scenario keys and vnode labels look like) must spread over all replicas.
// Raw FNV-1a fails this badly; the fmix64 finalizer is what passes it.
func TestRingBalance(t *testing.T) {
	ring, err := NewRing(testReplicas, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]func(i int) string{
		"prefixed-counter": func(i int) string { return fmt.Sprintf("hot-%04d", i) },
		"hex-canonical":    func(i int) string { return fmt.Sprintf("%016x|%016x|k9", 0x4050<<48|uint64(i), uint64(i)*7) },
	}
	for name, gen := range families {
		const n = 3000
		counts := make([]int, ring.Size())
		for i := 0; i < n; i++ {
			counts[ring.Owner(gen(i))]++
		}
		fair := n / ring.Size()
		for r, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Errorf("%s: replica %d owns %d of %d keys (fair %d); hash is not spreading", name, r, c, n, fair)
			}
		}
	}
}

// TestRingOwners checks the failover order: distinct replicas, primary
// first, every replica eventually listed.
func TestRingOwners(t *testing.T) {
	ring, err := NewRing(testReplicas, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := ring.Owners(key, 0)
		if len(owners) != ring.Size() {
			t.Fatalf("Owners(%q, 0) returned %d replicas, want %d", key, len(owners), ring.Size())
		}
		if owners[0] != ring.Owner(key) {
			t.Fatalf("Owners(%q)[0] = %d != Owner = %d", key, owners[0], ring.Owner(key))
		}
		seen := make(map[int]bool)
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats replica %d", key, o)
			}
			seen[o] = true
		}
		if got := ring.Owners(key, 2); len(got) != 2 || got[0] != owners[0] || got[1] != owners[1] {
			t.Fatalf("Owners(%q, 2) = %v, want prefix of %v", key, got, owners)
		}
	}
}

// TestNewRingRejects covers configuration validation.
func TestNewRingRejects(t *testing.T) {
	cases := []struct {
		name     string
		replicas []string
		vnodes   int
	}{
		{name: "empty", replicas: nil, vnodes: 64},
		{name: "blank name", replicas: []string{""}, vnodes: 64},
		{name: "duplicate", replicas: []string{"a", "a"}, vnodes: 64},
		{name: "vnode cap", replicas: []string{"a"}, vnodes: MaxVNodes + 1},
	}
	for _, c := range cases {
		if _, err := NewRing(c.replicas, c.vnodes); err == nil {
			t.Errorf("%s: NewRing accepted an invalid config", c.name)
		}
	}
}
