package load

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/service"
)

// bootDaemon serves a real engine behind httptest and returns a client for
// it plus the engine (for white-box cache assertions).
func bootDaemon(t *testing.T, jobs int) (*client.Client, *service.Engine) {
	t.Helper()
	engine := service.NewEngine(jobs, 0)
	ts := httptest.NewServer(service.NewServer("127.0.0.1:0", engine).Handler())
	t.Cleanup(ts.Close)
	cli, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return cli, engine
}

func TestGeneratorDeterministicAndValid(t *testing.T) {
	for _, mix := range []Mix{MixHot, MixZipf, MixCold} {
		g1, err := NewGenerator(GeneratorConfig{Seed: 7, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewGenerator(GeneratorConfig{Seed: 7, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		kinds := make(map[OpKind]int)
		for i := 0; i < 400; i++ {
			op1, op2 := g1.Op(i), g2.Op(i)
			if op1.hash() != op2.hash() {
				t.Fatalf("mix %s op %d differs between identical generators", mix, i)
			}
			kinds[op1.Kind]++
			for _, sc := range op1.Scenarios {
				if err := sc.Validate(); err != nil {
					t.Fatalf("mix %s op %d generated invalid scenario: %v", mix, i, err)
				}
			}
			switch op1.Kind {
			case OpRTT, OpSweep, OpDimension:
				if len(op1.Scenarios) != 1 {
					t.Fatalf("op %d kind %s has %d scenarios", i, op1.Kind, len(op1.Scenarios))
				}
			case OpBatch:
				if len(op1.Scenarios) != 8 {
					t.Fatalf("batch op %d has %d scenarios, want default 8", i, len(op1.Scenarios))
				}
			}
		}
		// Every weighted endpoint appears in a 400-op stream.
		for k := OpKind(0); k < numOpKinds; k++ {
			if kinds[k] == 0 {
				t.Errorf("mix %s: endpoint %s never generated in 400 ops", mix, k)
			}
		}
		// A different seed is a different stream (same config otherwise).
		g3, err := NewGenerator(GeneratorConfig{Seed: 8, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := 0; i < 100; i++ {
			if g1.Op(i).hash() == g3.Op(i).hash() {
				same++
			}
		}
		// Hot draws from a 16-scenario pool, so coincidences happen; a
		// different seed also reshuffles the pool, making full agreement
		// essentially impossible.
		if same == 100 {
			t.Errorf("mix %s: seeds 7 and 8 generated identical streams", mix)
		}
	}
}

func TestParseWeights(t *testing.T) {
	w, err := ParseWeights("rtt=8, sweep=1,models=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if w.RTT != 8 || w.Sweep != 1 || w.Models != 0.5 || w.Batch != 0 || w.Dimension != 0 {
		t.Errorf("parsed %+v", w)
	}
	for _, bad := range []string{"rtt", "nope=1", "rtt=x", "rtt=-1", "rtt=0", "rtt=1O", "rtt=1e2x"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("weights %q accepted", bad)
		}
	}
}

// TestRunDeterministicAcrossJobs is the load generator's determinism
// contract end to end: the same seed at -jobs 1 and -jobs 8 issues the
// identical multiset of requests against a real loopback daemon (pinned
// both by the order-independent fingerprint and by the observed multiset of
// op indices), with zero errors either way.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) (*Report, map[uint64]int) {
		cli, _ := bootDaemon(t, 4)
		var mu sync.Mutex
		seen := make(map[uint64]int)
		rep, err := Run(context.Background(), Config{
			Client: cli, Jobs: jobs, Seed: 42, Mix: MixHot,
			Count: 60, RequestTimeout: 30 * time.Second,
			// rtt+batch keeps the warmup pass cheap; the multiset contract
			// does not depend on which endpoints are in the mix.
			Weights: Weights{RTT: 8, Batch: 1},
			OnOp: func(i int, op Op) {
				mu.Lock()
				seen[op.hash()]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, seen
	}
	rep1, seen1 := run(1)
	rep8, seen8 := run(8)

	if rep1.TotalErrors() != 0 || rep8.TotalErrors() != 0 {
		t.Fatalf("errors: jobs1=%d jobs8=%d", rep1.TotalErrors(), rep8.TotalErrors())
	}
	if rep1.Requests != 60 || rep8.Requests != 60 {
		t.Fatalf("requests: jobs1=%d jobs8=%d, want 60", rep1.Requests, rep8.Requests)
	}
	if rep1.Fingerprint != rep8.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", rep1.Fingerprint, rep8.Fingerprint)
	}
	if len(seen1) != len(seen8) {
		t.Fatalf("distinct ops: jobs1=%d jobs8=%d", len(seen1), len(seen8))
	}
	for h, n := range seen1 {
		if seen8[h] != n {
			t.Errorf("op %016x issued %d times at jobs=1 but %d at jobs=8", h, n, seen8[h])
		}
	}
}

// TestSoakMixedEndpoints is the e2e soak: a >= 2s duration run mixing every
// endpoint against a loopback daemon must complete with zero errors (warmup
// included), and on the hot mix the daemon's cumulative cache hit ratio
// must be monotonically nondecreasing across consecutive bursts — after the
// deterministic warmup pass, every measured hot request is a hit, so each
// burst can only pull the cumulative ratio upward.
func TestSoakMixedEndpoints(t *testing.T) {
	cli, _ := bootDaemon(t, 4)
	ctx := context.Background()

	rep, err := Run(ctx, Config{
		Client: cli, Jobs: 8, Seed: 1, Mix: MixHot,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors() != 0 {
		t.Fatalf("soak saw %d errors (%d warmup): %+v", rep.TotalErrors(), rep.WarmupErrors, rep.StatusCounts)
	}
	if rep.Requests == 0 || rep.AchievedRPS <= 0 {
		t.Fatalf("soak did no work: %+v", rep)
	}
	// Mixed endpoints: the default weights include all five.
	for _, ep := range []string{"rtt", "batch", "sweep", "dimension", "models"} {
		if rep.Endpoints[ep].Requests == 0 {
			t.Errorf("soak never hit endpoint %s", ep)
		}
	}
	if !rep.Cache.Valid || rep.Cache.HitRatio != 1 {
		t.Errorf("hot-mix steady-state hit ratio = %v (valid=%v), want 1",
			rep.Cache.HitRatio, rep.Cache.Valid)
	}

	// Monotone cumulative hit ratio across further hot bursts on the same
	// daemon (same seed, so the key space stays the warmed one).
	ratio := func() float64 {
		snap, err := cli.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := client.CacheHitRatioDelta(client.MetricsSnapshot{}, snap)
		if !ok {
			t.Fatal("no traffic in metrics")
		}
		return r
	}
	last := ratio()
	for burst := 0; burst < 3; burst++ {
		if _, err := Run(ctx, Config{
			Client: cli, Jobs: 4, Seed: 1, Mix: MixHot,
			Count: 40, WarmupPasses: -1, // cache is already warm
		}); err != nil {
			t.Fatal(err)
		}
		now := ratio()
		if now < last {
			t.Errorf("burst %d: cumulative hit ratio decreased %.4f -> %.4f", burst, last, now)
		}
		last = now
	}
}

// TestColdMixMisses pins the other end of the cache spectrum: unique-cold
// scenarios essentially never hit.
func TestColdMixMisses(t *testing.T) {
	cli, _ := bootDaemon(t, 4)
	rep, err := Run(context.Background(), Config{
		Client: cli, Jobs: 4, Seed: 3, Mix: MixCold,
		Count: 30, Weights: Weights{RTT: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors() != 0 {
		t.Fatalf("cold run errored: %+v", rep.StatusCounts)
	}
	if !rep.Cache.Valid || rep.Cache.HitRatio > 0.1 {
		t.Errorf("cold mix hit ratio %.3f, want ~0", rep.Cache.HitRatio)
	}
}

// TestZipfSkew pins that the zipf mix actually skews: the most popular pool
// scenario must be drawn far more often than the least popular.
func TestZipfSkew(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Seed: 5, Mix: MixZipf, PoolSize: 16,
		Weights: Weights{RTT: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pool := g.Pool()
	counts := make(map[string]int)
	for i := 0; i < 4000; i++ {
		counts[g.Op(i).Scenarios[0].Canonical()]++
	}
	head := counts[pool[0].Canonical()]
	tail := counts[pool[len(pool)-1].Canonical()]
	if head <= 3*tail {
		t.Errorf("zipf head drawn %d times vs tail %d: not skewed", head, tail)
	}
	// Still a long tail: most pool entries appear.
	if len(counts) < len(pool)/2 {
		t.Errorf("only %d of %d pool scenarios drawn", len(counts), len(pool))
	}
}

// TestReportText smoke-tests the human rendering.
func TestReportText(t *testing.T) {
	cli, _ := bootDaemon(t, 2)
	rep, err := Run(context.Background(), Config{
		Client: cli, Jobs: 2, Seed: 9, Mix: MixHot, Count: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, want := range []string{"fpsload:", "req/s", "latency ms", "hit ratio", "fingerprint"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}
