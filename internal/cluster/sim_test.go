package cluster

import (
	"bytes"
	"testing"
)

// TestSimDeterministicAcrossJobs is the simulator's core promise: the same
// config renders byte-identical text and JSON reports at any worker count,
// because the workload is generated once and runner collection is ordered.
func TestSimDeterministicAcrossJobs(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Requests = 6000
	var texts [][]byte
	var jsons [][]byte
	for _, jobs := range []int{1, 2, 4, 8} {
		cmp, err := ComparePolicies(cfg, nil, jobs)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, []byte(cmp.Text()))
		jsons = append(jsons, cmp.JSON())
	}
	for i := 1; i < len(texts); i++ {
		if !bytes.Equal(texts[0], texts[i]) {
			t.Errorf("text report differs between jobs=1 and jobs=%d:\n%s\nvs\n%s", []int{1, 2, 4, 8}[i], texts[0], texts[i])
		}
		if !bytes.Equal(jsons[0], jsons[i]) {
			t.Errorf("JSON report differs between jobs=1 and jobs=%d", []int{1, 2, 4, 8}[i])
		}
	}
}

// TestSimSameSeedSameReport re-runs the full default comparison twice; the
// reports must match byte for byte (no hidden global state).
func TestSimSameSeedSameReport(t *testing.T) {
	a, err := ComparePolicies(DefaultSimConfig(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComparePolicies(DefaultSimConfig(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Errorf("same seed produced different reports:\n%s\nvs\n%s", a.Text(), b.Text())
	}
}

// TestSimAffinityBeatsRandom is the prediction the real cluster CI gate must
// reproduce: with per-replica capacity below the working set, affinity
// routing's aggregate hit ratio beats random routing by a wide margin (the
// cluster's combined capacity covers the pool only if the keyspace is
// partitioned), and it does so with fewer cold computes.
func TestSimAffinityBeatsRandom(t *testing.T) {
	cmp, err := ComparePolicies(DefaultSimConfig(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	aff, rnd := cmp.result(PolicyAffinity), cmp.result(PolicyRandom)
	if aff == nil || rnd == nil {
		t.Fatal("comparison missing a policy result")
	}
	// The margin the CI cluster gate checks the real topology against.
	const margin = 0.05
	if aff.HitRatio < rnd.HitRatio+margin {
		t.Errorf("affinity hit ratio %.4f does not beat random %.4f by %.2f", aff.HitRatio, rnd.HitRatio, margin)
	}
	if aff.Computes >= rnd.Computes {
		t.Errorf("affinity computed %d times, random %d — partitioning should compute less", aff.Computes, rnd.Computes)
	}
	if aff.HitRatio < 0.95 {
		t.Errorf("affinity hit ratio %.4f below the 0.95 floor the CI gate enforces", aff.HitRatio)
	}
}

// TestSimWorkloadIsPure checks the workload generator is a pure function of
// the config: policies compared against it all face identical arrivals.
func TestSimWorkloadIsPure(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Requests = 2000
	a, b := cfg.workload(), cfg.workload()
	if len(a) != len(b) {
		t.Fatalf("workload lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload diverges at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSimRejectsBadConfig covers validation.
func TestSimRejectsBadConfig(t *testing.T) {
	bad := []func(*SimConfig){
		func(c *SimConfig) { c.Replicas = 0 },
		func(c *SimConfig) { c.Requests = 0 },
		func(c *SimConfig) { c.ArrivalRate = 0 },
		func(c *SimConfig) { c.PoolSize = 0 },
		func(c *SimConfig) { c.ColdFraction = 1.5 },
		func(c *SimConfig) { c.HotService = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultSimConfig()
		mutate(&cfg)
		if _, err := ComparePolicies(cfg, nil, 1); err == nil {
			t.Errorf("case %d: ComparePolicies accepted an invalid config", i)
		}
	}
	if _, err := ComparePolicies(DefaultSimConfig(), []string{"nonsense"}, 1); err == nil {
		t.Error("ComparePolicies accepted an unknown policy")
	}
}

// result returns the named policy's result, or nil.
func (c *Comparison) result(policy string) *SimResult {
	for i := range c.Results {
		if c.Results[i].Policy == policy {
			return &c.Results[i]
		}
	}
	return nil
}
