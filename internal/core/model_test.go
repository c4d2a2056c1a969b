package core

import (
	"errors"
	"math"
	"testing"

	"fpsping/internal/mgf"
)

// figure3Model is the Figure 3 scenario: PS=125B, T=60ms, DSL defaults.
func figure3Model(k int) Model {
	m := DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = k
	return m
}

// figure4Model is the Figure 4 scenario: PS=125B, K=9, variable T.
func figure4Model(tSec float64) Model {
	m := DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = tSec
	m.ErlangOrder = 9
	return m
}

func TestValidation(t *testing.T) {
	m := figure3Model(9)
	m.Gamers = 40
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.Gamers = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero gamers")
	}
	bad = m
	bad.ErlangOrder = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted K=1 (uniform position law needs K>=2)")
	}
	bad = m
	bad.Quantile = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted quantile 1")
	}
	bad = m
	bad.FixedDelay = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative fixed delay")
	}
}

// TestValidateRejectsNaN: every parameter rejects NaN, which slips
// through an ordered comparison such as x < 0.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		set  func(*Model)
	}{
		{"gamers", func(m *Model) { m.Gamers = nan }},
		{"client packet", func(m *Model) { m.ClientPacketBytes = nan }},
		{"server packet", func(m *Model) { m.ServerPacketBytes = nan }},
		{"burst interval", func(m *Model) { m.BurstInterval = nan }},
		{"client interval", func(m *Model) { m.ClientInterval = nan }},
		{"uplink rate", func(m *Model) { m.UplinkAccessRate = nan }},
		{"downlink rate", func(m *Model) { m.DownlinkAccessRate = nan }},
		{"aggregate rate", func(m *Model) { m.AggregateRate = nan }},
		{"quantile", func(m *Model) { m.Quantile = nan }},
		{"fixed delay", func(m *Model) { m.FixedDelay = nan }},
	} {
		m := figure3Model(9)
		m.Gamers = 40
		tc.set(&m)
		if err := m.Validate(); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s NaN: err %v, want ErrBadModel", tc.name, err)
		}
	}
}

func TestLoadsMatchEquation37(t *testing.T) {
	m := figure3Model(9)
	m.Gamers = 100
	// rho_d = 8*N*PS/(T*C) = 8*100*125/(0.06*5e6) = 1/3.
	if got := m.DownlinkLoad(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("downlink load = %v", got)
	}
	// rho_u = 8*100*80/(0.06*5e6).
	if got := m.UplinkLoad(); math.Abs(got-64000.0/300000) > 1e-12 {
		t.Errorf("uplink load = %v", got)
	}
	// WithDownlinkLoad inverts eq. (37).
	m2 := m.WithDownlinkLoad(0.5)
	if math.Abs(m2.DownlinkLoad()-0.5) > 1e-12 {
		t.Errorf("WithDownlinkLoad: %v", m2.DownlinkLoad())
	}
	if math.Abs(m2.Gamers-150) > 1e-9 {
		t.Errorf("N at 50%% load = %v, want 150", m2.Gamers)
	}
}

func TestSerializationDelayDSL(t *testing.T) {
	m := figure3Model(9)
	m.Gamers = 10
	// 80B at 128k = 5ms; 80B at 5M = 0.128ms; 125B at 5M = 0.2ms;
	// 125B at 1.024M = 0.9765625ms.
	want := 0.005 + 0.000128 + 0.0002 + 0.0009765625
	if got := m.SerializationDelay(); math.Abs(got-want) > 1e-12 {
		t.Errorf("serialization = %v, want %v", got, want)
	}
}

func TestRTTQuantileBasicProperties(t *testing.T) {
	m := figure3Model(9).WithDownlinkLoad(0.4)
	q, err := m.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	if q <= m.FixedPart() {
		t.Errorf("quantile %v below fixed part %v", q, m.FixedPart())
	}
	// Tail at the quantile equals 1 - level.
	tail, err := m.rttTail(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tail-1e-5) > 1e-7 {
		t.Errorf("tail at quantile = %v, want 1e-5", tail)
	}
	mean, err := m.MeanRTT()
	if err != nil {
		t.Fatal(err)
	}
	if !(mean > m.FixedPart() && mean < q) {
		t.Errorf("mean %v outside (fixed %v, quantile %v)", mean, m.FixedPart(), q)
	}
	// FixedDelay shifts the quantile one-for-one.
	m2 := m
	m2.FixedDelay = 0.010
	q2, err := m2.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q2-q-0.010) > 1e-9 {
		t.Errorf("fixed delay not additive: %v vs %v", q2, q)
	}
}

func TestUnstableLoadsError(t *testing.T) {
	m := figure3Model(9).WithDownlinkLoad(1.05)
	if _, err := m.RTTQuantile(); !errors.Is(err, ErrUnstable) {
		t.Errorf("want ErrUnstable, got %v", err)
	}
	// PS < PC: uplink saturates first. At PS=75, PC=80, downlink load 0.95
	// means uplink load 0.95*80/75 > 1.
	m2 := DSLDefaults()
	m2.ServerPacketBytes = 75
	m2.BurstInterval = 0.060
	m2.ErlangOrder = 9
	m2 = m2.WithDownlinkLoad(0.95)
	if _, err := m2.RTTQuantile(); !errors.Is(err, ErrUnstable) {
		t.Errorf("uplink overload not caught: %v", err)
	}
}

func TestFigure3ShapeContracts(t *testing.T) {
	// The three curves of Figure 3: K=2, 9, 20 at PS=125B, T=60ms.
	curves := map[int][]SweepPoint{}
	for _, k := range []int{2, 9, 20} {
		pts, err := figure3Model(k).SweepLoads(PaperLoadGrid(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) < 15 {
			t.Fatalf("K=%d: only %d stable points", k, len(pts))
		}
		curves[k] = pts
		// Monotone increasing in load.
		for i := 1; i < len(pts); i++ {
			if pts[i].RTT <= pts[i-1].RTT {
				t.Errorf("K=%d: RTT not increasing at load %v", k, pts[i].Load)
			}
		}
	}
	// Ordering: smaller K (burstier) means larger RTT at every common load.
	for i := range curves[20] {
		if i >= len(curves[2]) || i >= len(curves[9]) {
			break
		}
		r2, r9, r20 := curves[2][i].RTT, curves[9][i].RTT, curves[20][i].RTT
		if !(r2 > r9 && r9 > r20) {
			t.Errorf("load %v: ordering violated: K2=%v K9=%v K20=%v",
				curves[20][i].Load, r2, r9, r20)
		}
	}
	// Low-load regime: position delay dominates and RTT grows ~linearly with
	// load (§4's reading of Figure 3). Compare successive increments over
	// 5%..25% load: they should be nearly constant.
	pts := curves[9]
	d1 := pts[1].RTT - pts[0].RTT
	d4 := pts[4].RTT - pts[3].RTT
	if d1 <= 0 || math.Abs(d4-d1)/d1 > 0.35 {
		t.Errorf("low-load growth not near-linear: increments %v vs %v", d1, d4)
	}
	// High-load blow-up: the last stable point must exceed 3x the mid-load
	// RTT (the rho->1 asymptote).
	mid := pts[len(pts)/2].RTT
	last := pts[len(pts)-1].RTT
	if last < 2*mid {
		t.Errorf("no blow-up near saturation: mid %v last %v", mid, last)
	}
	// Paper's reading: "even at moderate load, low values of K lead to
	// unacceptable RTT" - at 50% load K=2 is already several times K=20.
	i50 := 9 // load 0.50 in the 5% grid
	if curves[2][i50].RTT < 2*curves[20][i50].RTT {
		t.Errorf("K=2 not dramatically worse at 50%%: %v vs %v",
			curves[2][i50].RTT, curves[20][i50].RTT)
	}
}

func TestFigure4InterArrivalProportionality(t *testing.T) {
	// Figure 4: with the downlink dominant, RTT is ~proportional to T;
	// the paper: "the RTT for T=60ms is about 3/2 times as high as for
	// T=40ms".
	m40 := figure4Model(0.040)
	m60 := figure4Model(0.060)
	for _, rho := range []float64{0.2, 0.4, 0.6} {
		q40, err := m40.WithDownlinkLoad(rho).RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		q60, err := m60.WithDownlinkLoad(rho).RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		// Compare the queueing parts (serialization is load-independent and
		// tiny, but exclude it to test the claim cleanly).
		f40 := m40.FixedPart()
		f60 := m60.FixedPart()
		ratio := (q60 - f60) / (q40 - f40)
		if math.Abs(ratio-1.5) > 0.1 {
			t.Errorf("load %v: T-scaling ratio %v, want ~1.5", rho, ratio)
		}
	}
}

func TestCapacityInvarianceGivenLoad(t *testing.T) {
	// §4: "the structure of our downlink queueing model is such that it is
	// invariant with respect to the capacity C: only the load determines the
	// quantile value". Changing C (and keeping load fixed) must only move
	// the serialization part.
	base := figure3Model(9).WithDownlinkLoad(0.4)
	qBase, err := base.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	scaled := base
	scaled.AggregateRate *= 4
	scaled = scaled.WithDownlinkLoad(0.4)
	qScaled, err := scaled.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	gotShift := qBase - qScaled
	wantShift := base.FixedPart() - scaled.FixedPart()
	if math.Abs(gotShift-wantShift) > 0.002 {
		t.Errorf("capacity shift %v, serialization shift %v", gotShift, wantShift)
	}
}

func TestRobustnessAcrossServerPacketSizes(t *testing.T) {
	// §4: "We have done the same experiment for PS=100 and PS=75 and obtained
	// nearly the same behavior": at equal downlink load, the queueing part of
	// the RTT should be close across PS (it depends on load, T, K only).
	var ref float64
	for i, ps := range []float64{125, 100, 75} {
		m := DSLDefaults()
		m.ServerPacketBytes = ps
		m.BurstInterval = 0.060
		m.ErlangOrder = 9
		m = m.WithDownlinkLoad(0.5)
		q, err := m.RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		queueing := q - m.FixedPart()
		if i == 0 {
			ref = queueing
			continue
		}
		if math.Abs(queueing-ref)/ref > 0.12 {
			t.Errorf("PS=%v: queueing quantile %v deviates from %v", ps, queueing, ref)
		}
	}
}

func TestDimensioningMatchesPaper(t *testing.T) {
	// §4's closing example: PS=125B, T=40ms, C=5Mbit/s, RTT bound 50ms
	// ("excellent game play" per Färber [11]) gives rho_max ~ 20/40/60% and
	// Nmax = 40/80/120 for K = 2/9/20.
	cases := []struct {
		k       int
		rhoLo   float64
		rhoHi   float64
		gamersN int
		gamTol  int
	}{
		{2, 0.10, 0.30, 40, 22},
		{9, 0.30, 0.50, 80, 30},
		{20, 0.48, 0.75, 120, 40},
	}
	for _, c := range cases {
		m := DSLDefaults()
		m.ServerPacketBytes = 125
		m.BurstInterval = 0.040
		m.ErlangOrder = c.k
		res, err := m.MaxLoad(0.050)
		if err != nil {
			t.Fatalf("K=%d: %v", c.k, err)
		}
		if res.MaxDownlinkLoad < c.rhoLo || res.MaxDownlinkLoad > c.rhoHi {
			t.Errorf("K=%d: rho_max = %v, paper band [%v, %v]",
				c.k, res.MaxDownlinkLoad, c.rhoLo, c.rhoHi)
		}
		if res.MaxGamers < c.gamersN-c.gamTol || res.MaxGamers > c.gamersN+c.gamTol {
			t.Errorf("K=%d: Nmax = %d, paper ~%d", c.k, res.MaxGamers, c.gamersN)
		}
		if res.RTTAtMax > 0.050+1e-4 {
			t.Errorf("K=%d: RTT at max load %v exceeds bound", c.k, res.RTTAtMax)
		}
		// Consistency of the closing formula Nmax = rho*T*C/(8*PS).
		wantN := int(res.MaxDownlinkLoad * m.BurstInterval * m.AggregateRate / (8 * m.ServerPacketBytes))
		if res.MaxGamers != wantN {
			t.Errorf("K=%d: Nmax %d inconsistent with formula %d", c.k, res.MaxGamers, wantN)
		}
	}
	// Monotonicity in K: more regular bursts -> more tolerable load.
	var prev float64
	for _, k := range []int{2, 9, 20} {
		m := DSLDefaults()
		m.ServerPacketBytes = 125
		m.BurstInterval = 0.040
		m.ErlangOrder = k
		res, err := m.MaxLoad(0.050)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxDownlinkLoad <= prev {
			t.Errorf("K=%d: rho_max %v not increasing in K", k, res.MaxDownlinkLoad)
		}
		prev = res.MaxDownlinkLoad
	}
}

func TestDimensioningEdgeCases(t *testing.T) {
	m := figure3Model(9)
	if _, err := m.MaxLoad(0); err == nil {
		t.Error("accepted zero bound")
	}
	// Bound below the fixed delay is impossible.
	if _, err := m.MaxLoad(0.004); err == nil {
		t.Error("accepted bound below serialization delay")
	}
	// A huge bound should run into the stability ceiling, not loop.
	res, err := m.MaxLoad(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDownlinkLoad < 0.9 {
		t.Errorf("huge bound: rho_max = %v", res.MaxDownlinkLoad)
	}
}

// TestDecomposePropagatesInvalidComponent pins that a factor law whose
// inversion fails makes Decompose fail with mgf.ErrInvalid, which the
// service serves as a 422, instead of reporting a 0 ms component. The bad
// factor goes in through components, Decompose over given factors: NewSum
// rejects a non-finite U or W and builds P itself.
func TestDecomposePropagatesInvalidComponent(t *testing.T) {
	bad := mgf.NewExponential(math.NaN(), 1) // every tail value is NaN
	for name, swap := range map[string]func(du, w, p *mgf.Mix){
		"upstream":   func(du, _, _ *mgf.Mix) { *du = bad },
		"burst wait": func(_, w, _ *mgf.Mix) { *w = bad },
		"position":   func(_, _, p *mgf.Mix) { *p = bad },
	} {
		cm, err := figure3Model(9).WithDownlinkLoad(0.5).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cm.Decompose(); err != nil {
			t.Fatalf("%s: valid model: %v", name, err)
		}
		du, w, p := cm.Law().Law().Factors()
		swap(&du, &w, &p)
		if c, err := cm.components(du, w, p); !errors.Is(err, mgf.ErrInvalid) {
			t.Errorf("%s: Decompose = %+v, %v; want mgf.ErrInvalid", name, c, err)
		}
	}
}

func TestDecomposeComponentsBehave(t *testing.T) {
	// Low load: position delay dominates burst wait and upstream (§4's
	// explanation of the linear regime).
	m := figure3Model(9).WithDownlinkLoad(0.15)
	c, err := m.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if !(c.Position > c.BurstWait && c.Position > c.Upstream) {
		t.Errorf("low load: position %v should dominate burst %v and upstream %v",
			c.Position, c.BurstWait, c.Upstream)
	}
	// High load: burst wait takes over.
	m2 := figure3Model(9).WithDownlinkLoad(0.85)
	c2, err := m2.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if !(c2.BurstWait > c2.Position) {
		t.Errorf("high load: burst %v should dominate position %v", c2.BurstWait, c2.Position)
	}
	// The true total is below fixed + sum of quantiles, and above fixed +
	// the largest single component.
	sumQ, err := m.RTTQuantileSumOfQuantiles()
	if err != nil {
		t.Fatal(err)
	}
	if !(c.Total <= sumQ+1e-12) {
		t.Errorf("total %v exceeds sum-of-quantiles %v", c.Total, sumQ)
	}
	if !(c.Total >= c.Serialization+c.Position) {
		t.Errorf("total %v below serialization+position %v", c.Total, c.Serialization+c.Position)
	}
}

func TestAblationApproximations(t *testing.T) {
	m := figure3Model(9).WithDownlinkLoad(0.5)
	full, err := m.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}
	dom, err := m.RTTQuantileDominantPole()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.RTTQuantileSumOfQuantiles()
	if err != nil {
		t.Fatal(err)
	}
	// Sum of quantiles over-estimates; dominant pole is in the right
	// ballpark (within 25% of the full inversion).
	if !(sum >= full) {
		t.Errorf("sum-of-quantiles %v below full %v", sum, full)
	}
	if math.Abs(dom-full)/full > 0.25 {
		t.Errorf("dominant-pole %v vs full %v", dom, full)
	}
}

func TestSweepErrors(t *testing.T) {
	m := figure3Model(9)
	if _, err := m.SweepLoads(nil, 1); err == nil {
		t.Error("accepted empty sweep")
	}
	if _, err := m.SweepLoads([]float64{-0.1}, 1); err == nil {
		t.Error("accepted negative load")
	}
	grid := PaperLoadGrid()
	if len(grid) != 18 || math.Abs(grid[0]-0.05) > 1e-12 || math.Abs(grid[17]-0.90) > 1e-9 {
		t.Errorf("paper grid wrong: %v", grid)
	}
}

func BenchmarkRTTQuantileK9(b *testing.B) {
	m := figure3Model(9).WithDownlinkLoad(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTTQuantileK20(b *testing.B) {
	m := figure3Model(20).WithDownlinkLoad(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantile(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullFigure3Curve(b *testing.B) {
	m := figure3Model(9)
	loads := PaperLoadGrid()
	for i := 0; i < b.N; i++ {
		if _, err := m.SweepLoads(loads, 1); err != nil {
			b.Fatal(err)
		}
	}
}
