package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func testWorkloads(t *testing.T) []Workload {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Workloads
}

func TestScheduleFixedBySeed(t *testing.T) {
	for _, wl := range testWorkloads(t) {
		a := newGen(wl, 11).Schedule(streamNominal, 200, 10*time.Second)
		b := newGen(wl, 11).Schedule(streamNominal, 200, 10*time.Second)
		c := newGen(wl, 12).Schedule(streamNominal, 200, 10*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedules", wl.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same schedule", wl.Name)
		}
		// 2000 expected arrivals: a Poisson count stays within ~4.5 sigma.
		if n := float64(len(a)); math.Abs(n-2000) > 4.5*math.Sqrt(2000) {
			t.Errorf("%s: %v arrivals in 10s at 200/s", wl.Name, n)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("%s: schedule not sorted at %d", wl.Name, i)
			}
		}
	}
}

func TestRequestsArePureFunctionsOfIndex(t *testing.T) {
	for _, wl := range testWorkloads(t) {
		g1, g2 := newGen(wl, 5), newGen(wl, 5)
		// Draw in different orders: request i must not depend on others.
		late := g2.Request(streamNominal, 40)
		for i := 0; i < 50; i++ {
			r := g1.Request(streamNominal, i)
			if i == 40 && !reflect.DeepEqual(r, late) {
				t.Errorf("%s: request 40 depends on draw order", wl.Name)
			}
			for _, sc := range r.Scs {
				if err := sc.Validate(); err != nil {
					t.Errorf("%s: request %d carries an invalid scenario: %v", wl.Name, i, err)
				}
			}
		}
	}
}

func TestColdRequestsAreUnseen(t *testing.T) {
	for _, wl := range testWorkloads(t) {
		g := newGen(wl, 3)
		if g.pooled() {
			continue
		}
		seen := make(map[string]bool)
		for _, stream := range []uint64{streamWarmup, streamNominal, streamRung} {
			for i := 0; i < 500; i++ {
				k := reqKey(g.Request(stream, i))
				if seen[k] {
					t.Fatalf("%s: request repeats across the run", wl.Name)
				}
				seen[k] = true
			}
		}
	}
}
