package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestMaxLoadWithMatchesMaxLoad pins the evaluator hook's contract: with a
// faithful PointEval the search makes the same probes and returns the
// bit-identical result as the direct path, the final evaluation re-asks a
// probed load (so a memoizing evaluator answers it from cache), and probes
// never repeat except for that closing call.
func TestMaxLoadWithMatchesMaxLoad(t *testing.T) {
	m := DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.040
	m.ErlangOrder = 9

	direct, err := m.MaxLoad(0.050)
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[float64]int)
	calls := 0
	hooked, err := m.MaxLoadWith(0.050, func(rho float64) (float64, error) {
		calls++
		seen[rho]++
		if !(rho > 0) {
			t.Errorf("search probed non-positive load %g", rho)
		}
		return m.WithDownlinkLoad(rho).RTTQuantile()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != direct {
		t.Errorf("hooked result %+v differs from direct %+v", hooked, direct)
	}
	if calls < 3 {
		t.Fatalf("search ran only %d evaluations", calls)
	}
	if len(seen) != calls-1 {
		t.Errorf("%d distinct probes over %d calls; only the closing call may repeat", len(seen), calls)
	}
	repeated := 0
	for rho, n := range seen {
		if n > 1 {
			repeated++
			if n != 2 || rho != direct.MaxDownlinkLoad {
				t.Errorf("load %g probed %d times; only the accepted load may be re-asked once", rho, n)
			}
		}
	}
	if repeated != 1 {
		t.Errorf("%d loads probed twice, want exactly the accepted one", repeated)
	}

	// The bound-never-binds fast path goes through the hook too.
	if _, err := m.MaxLoadWith(10, func(rho float64) (float64, error) {
		return m.WithDownlinkLoad(rho).RTTQuantile()
	}); err != nil {
		t.Errorf("huge bound via hook: %v", err)
	}

	// A failing evaluator propagates instead of being swallowed.
	if _, err := m.MaxLoadWith(0.050, func(rho float64) (float64, error) {
		return 0, ErrUnstable
	}); err == nil {
		t.Error("evaluator error not propagated")
	}
}

// ceiling returns the stability ceiling of m's downlink load (the smaller
// of the downlink's 1 and the uplink's PS/PC*D/T) less 1e-6: the load
// MaxLoadWith probes second and returns when the bound never binds.
func ceiling(m Model) float64 {
	return min(1, (m.ServerPacketBytes/m.ClientPacketBytes)*(m.clientInterval()/m.BurstInterval)) - 1e-6
}

// bisectMaxLoad is the reference answer: plain bisection over
// [1e-6, ceiling] to a bracket narrower than 1e-6, keeping the feasible end.
func bisectMaxLoad(m Model, bound float64) (float64, error) {
	path := m.NewLoadPath()
	rttAt := func(rho float64) (float64, error) {
		pt, err := path.Point(rho)
		return pt.RTT, err
	}
	lo, hi := 1e-6, ceiling(m)
	if v, err := rttAt(hi); err != nil || v <= bound {
		return hi, err
	}
	for hi-lo >= 1e-6 {
		mid := lo + (hi-lo)/2
		v, err := rttAt(mid)
		if err != nil {
			return 0, err
		}
		if v <= bound {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// checkSearch runs m.MaxLoadWith(bound) through rttAt, recording every
// probe, and checks the search's contract: it returns a probed feasible
// load, a probed infeasible load lies less than 1e-6 above it (unless the
// answer is the stability ceiling), it reports the probed RTT and the floor
// of the gamer count at that load, and it makes at most 24 calls —
// bisection's 20 midpoints, ITP's one step of slack, the two opening
// probes and the closing one. It returns the result and the call count.
func checkSearch(t *testing.T, name string, m Model, bound float64, rttAt PointEval) (DimensioningResult, int) {
	t.Helper()
	probed := make(map[float64]float64)
	calls := 0
	res, err := m.MaxLoadWith(bound, func(rho float64) (float64, error) {
		calls++
		v, err := rttAt(rho)
		probed[rho] = v
		return v, err
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lo := res.MaxDownlinkLoad
	v, ok := probed[lo]
	if !ok || !(v <= bound) {
		t.Errorf("%s: returned load %v was not a probed feasible load (probed %v, rtt %v, bound %v)", name, lo, ok, v, bound)
	}
	if res.RTTAtMax != v {
		t.Errorf("%s: RTTAtMax %v, probed %v", name, res.RTTAtMax, v)
	}
	if lo != ceiling(m) {
		bracketed := false
		for rho, v := range probed {
			if rho > lo && rho-lo < 1e-6 && !(v <= bound) {
				bracketed = true
			}
		}
		if !bracketed {
			t.Errorf("%s: no probed infeasible load within 1e-6 above %v", name, lo)
		}
	}
	if want := int(math.Floor(m.WithDownlinkLoad(lo).Gamers)); res.MaxGamers != want {
		t.Errorf("%s: MaxGamers %d, want floor of the gamers at %v = %d", name, res.MaxGamers, lo, want)
	}
	if calls > 24 {
		t.Errorf("%s: %d evaluations, more than the ITP bound of 24", name, calls)
	}
	return res, calls
}

// TestMaxLoadITPContract pins the ITP dimensioning search on a seeded
// sample of scenarios (K 2-30, bounds 30-150 ms) plus an uplink-limited
// scenario, a bound that never binds, a bound just above the zero-load RTT
// and an answer next to a whole gamer count: each answer keeps the
// checkSearch contract, lies within 1e-6 of plain bisection's, and its
// gamer count is feasible. Over the searches the bound cuts short, the
// median makes at most 12 evaluations (bisection always makes 23).
func TestMaxLoadITPContract(t *testing.T) {
	type dimCase struct {
		name  string
		m     Model
		bound float64
	}
	rng := rand.New(rand.NewPCG(18, 4))
	var cases []dimCase
	for i := 0; i < 12; i++ {
		m := DSLDefaults()
		m.ErlangOrder = 2 + rng.IntN(29)
		m.ServerPacketBytes = 100 + 100*rng.Float64()
		m.BurstInterval = 0.030 + 0.030*rng.Float64()
		m.Quantile = []float64{0.99, 0.999, 0.9999, 0.99999}[rng.IntN(4)]
		m.FixedDelay = 0.002 * rng.Float64()
		cases = append(cases, dimCase{"sample", m, 0.030 + 0.120*rng.Float64()})
	}
	uplink := figure3Model(9)
	uplink.ServerPacketBytes = 60 // the uplink saturates at rho_d = 60/80
	cases = append(cases,
		dimCase{"uplink-limited", uplink, 0.050},
		dimCase{"never binds", figure3Model(5), 1e9}, // ~1e4 s at the ceiling
	)
	zero := figure3Model(9)
	q0, err := zero.WithDownlinkLoad(1e-6).RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, dimCase{"just above zero-load RTT", zero, q0 + 1e-6})
	// At 150 gamers the bound is met with equality, so the answer sits
	// within 1e-6 in load (3e-4 gamers) of a whole gamer count.
	whole := figure3Model(9)
	whole.Gamers = 150
	qWhole, err := whole.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, dimCase{"next to 150 gamers", figure3Model(9), qWhole})

	var counts []int
	for _, c := range cases {
		name := c.m.String()
		path := c.m.NewLoadPath()
		res, calls := checkSearch(t, c.name+" "+name, c.m, c.bound, func(rho float64) (float64, error) {
			pt, err := path.Point(rho)
			return pt.RTT, err
		})
		ref, err := bisectMaxLoad(c.m, c.bound)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(res.MaxDownlinkLoad - ref); d > 1e-6 {
			t.Errorf("%s %s: load %v is %g from bisection's %v", c.name, name, res.MaxDownlinkLoad, d, ref)
		}
		if res.MaxGamers > 0 {
			at := c.m
			at.Gamers = float64(res.MaxGamers)
			if q, err := at.RTTQuantile(); err != nil || !(q <= c.bound) {
				t.Errorf("%s %s: %d gamers give RTT %v (%v) over the bound %v", c.name, name, res.MaxGamers, q, err, c.bound)
			}
		}
		switch c.name {
		case "uplink-limited":
			if !(res.MaxDownlinkLoad < 0.75) {
				t.Errorf("uplink-limited: load %v beyond the uplink ceiling 0.75", res.MaxDownlinkLoad)
			}
		case "never binds":
			if res.MaxDownlinkLoad != ceiling(c.m) || calls != 2 {
				t.Errorf("never binds: load %v after %d calls, want the ceiling %v after the 2 opening probes", res.MaxDownlinkLoad, calls, ceiling(c.m))
			}
			continue
		case "next to 150 gamers":
			if g := c.m.WithDownlinkLoad(res.MaxDownlinkLoad).Gamers; !(g <= 150 && g > 150-1e-3) || res.MaxGamers < 149 {
				t.Errorf("next to 150 gamers: %v gamers, MaxGamers %d", g, res.MaxGamers)
			}
		}
		counts = append(counts, calls)
	}
	slices.Sort(counts)
	if med := counts[len(counts)/2]; med > 12 {
		t.Errorf("median %d evaluations per search, want at most 12 (counts %v)", med, counts)
	}
	t.Logf("evaluations per search: %v", counts)
}

// TestMaxLoadITPSyntheticEvaluators drives the search with evaluators the
// interpolation cannot use: a step, a stretch where the RTT equals the
// fixed part (f = -Inf) with an infinite RTT near the ceiling, a stretch
// where it equals the bound (f = 0, feasible), and RTTs below the fixed
// part (f = NaN). Each run must end within the ITP bound with a probed
// feasible load within 1e-6 below the true edge.
func TestMaxLoadITPSyntheticEvaluators(t *testing.T) {
	m := figure3Model(9)
	fixed, bound := m.FixedPart(), 0.050
	for _, c := range []struct {
		name  string
		edge  float64
		rttAt PointEval
	}{
		{"step", 0.3, func(rho float64) (float64, error) {
			if rho < 0.3 {
				return (fixed + bound) / 2, nil
			}
			return 2 * bound, nil
		}},
		{"flat at the fixed part", 0.5, func(rho float64) (float64, error) {
			switch {
			case rho < 0.4:
				return fixed, nil
			case rho > 0.9:
				return math.Inf(1), nil
			}
			return fixed + (bound-fixed)*(rho-0.4)/0.1, nil
		}},
		{"at the bound up to the edge", 0.7, func(rho float64) (float64, error) {
			if rho <= 0.7 {
				return bound, nil
			}
			return 2 * bound, nil
		}},
		{"below the fixed part", 0.6, func(rho float64) (float64, error) {
			if rho < 0.6 {
				return fixed / 2, nil
			}
			return 3 * bound, nil
		}},
	} {
		res, calls := checkSearch(t, c.name, m, bound, c.rttAt)
		if lo := res.MaxDownlinkLoad; !(lo <= c.edge && c.edge-lo < 1e-6) {
			t.Errorf("%s: load %v, want within 1e-6 below %v", c.name, lo, c.edge)
		}
		t.Logf("%s: %d evaluations", c.name, calls)
	}
}
