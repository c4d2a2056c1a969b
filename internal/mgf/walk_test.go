package mgf_test

import (
	"fmt"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/mgf"
)

// paperModel is the Figure 3 scenario (PS=125B, T=60ms) at Erlang order k.
func paperModel(k int) core.Model {
	m := core.DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = k
	return m
}

// countedWalk inverts s at level p from the given seed with a tail that
// counts its evaluations and records the largest abscissa it was asked for.
func countedWalk(s mgf.Sum, p, seed float64) (x float64, evals int, maxX float64, err error) {
	tail := func(v float64) float64 {
		evals++
		maxX = max(maxX, v)
		return s.Tail(v)
	}
	x, err = mgf.InvertTail(tail, s.Mean(), p, 1e-10, seed)
	return x, evals, maxX, err
}

// bisectionProbes drives rttAt through the probe sequence of a §4
// dimensioning bisection under bound: the vanishing load 1e-6, the
// stability ceiling ceil, the midpoints of [1e-6, ceil] down to a bracket
// narrower than 1e-6, then the accepted load once more. Every probe but the
// opening two and the last lands on a fresh dyadic load, so the sequence
// visits a wide spread of laws in a fixed order.
func bisectionProbes(rttAt func(rho float64) (float64, error), bound, ceil float64) error {
	lo, hi := 1e-6, ceil
	for _, rho := range []float64{lo, hi} {
		if _, err := rttAt(rho); err != nil {
			return err
		}
	}
	for hi-lo >= 1e-6 {
		mid := lo + (hi-lo)/2
		v, err := rttAt(mid)
		if err != nil {
			return err
		}
		if v <= bound {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, err := rttAt(lo)
	return err
}

// TestSeededWalkStaysInBracket pins the seeded bracket walk against a walk
// from rung 0 on every Sum law of the paper grid (K 2, 9, 20, 30) and on
// every probe of a §4 dimensioning bisection (K=9, 60 ms bound). A walk from
// rung 0 evaluates exactly rungs 0..k and then stays inside the canonical
// bracket, so its largest abscissa is the bracket's hi. The seeded walk
// must return the same bits, never evaluate a tail above hi, and never make
// more tail evaluations; over all the laws it must make fewer.
func TestSeededWalkStaysInBracket(t *testing.T) {
	type point struct {
		name string
		law  mgf.Sum
		p    float64
	}
	var points []point
	for _, k := range []int{2, 9, 20, 30} {
		m := paperModel(k)
		for _, rho := range core.PaperLoadGrid() {
			cm, err := m.WithDownlinkLoad(rho).Compile()
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, point{fmt.Sprintf("K=%d grid rho=%.2f", k, rho), cm.Law().Law(), m.QuantileLevel()})
		}
	}
	m := paperModel(9)
	probe := 0
	rttAt := func(rho float64) (float64, error) {
		cm, err := m.WithDownlinkLoad(rho).Compile()
		if err != nil {
			return 0, err
		}
		probe++
		points = append(points, point{fmt.Sprintf("K=9 probe %d rho=%.6f", probe, rho), cm.Law().Law(), m.QuantileLevel()})
		return cm.RTTQuantile()
	}
	// The paper model's ceiling is the downlink's (the uplink saturates at
	// rho_d = PS/PC > 1).
	if err := bisectionProbes(rttAt, 0.060, 1-1e-6); err != nil {
		t.Fatal(err)
	}
	if probe < 20 {
		t.Fatalf("bisection made %d probes, want the full walk", probe)
	}

	sums, seededEvals, coldEvals := 0, 0, 0
	for _, pt := range points {
		s := pt.law
		sums++
		seed := mgf.SeedOf(s, pt.p)
		want, n0, hi, err := countedWalk(s, pt.p, 0)
		if err != nil {
			t.Fatalf("%s: walk from rung 0: %v", pt.name, err)
		}
		got, n, maxX, err := countedWalk(s, pt.p, seed)
		if err != nil {
			t.Fatalf("%s: seeded walk: %v", pt.name, err)
		}
		seededEvals += n
		coldEvals += n0
		if got != want {
			t.Errorf("%s: seeded answer %v != rung-0 answer %v", pt.name, got, want)
		}
		if maxX > hi {
			t.Errorf("%s: seeded walk evaluated the tail at %g, above the canonical hi %g", pt.name, maxX, hi)
		}
		if n > n0 {
			t.Errorf("%s: seeded walk made %d tail evaluations, rung-0 walk %d", pt.name, n, n0)
		}
		if !(seed <= want*(1+1e-12)) {
			t.Errorf("%s: seed %v exceeds the answer %v", pt.name, seed, want)
		}
	}
	if sums == 0 {
		t.Fatal("no Sum law on the grid")
	}
	if seededEvals >= coldEvals {
		t.Errorf("seeded walks made %d tail evaluations, rung-0 walks %d: the seed saves nothing", seededEvals, coldEvals)
	}
	t.Logf("%d Sum laws: %d tail evaluations seeded, %d from rung 0", sums, seededEvals, coldEvals)
}
