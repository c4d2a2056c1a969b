package queueing

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"fpsping/internal/mgf"
	"fpsping/internal/xmath"
)

func TestMD1Validation(t *testing.T) {
	if _, err := NewMD1(0, 1); err == nil {
		t.Error("accepted lambda=0")
	}
	if _, err := NewMD1(2, 0.6); !errors.Is(err, ErrUnstable) {
		t.Errorf("want ErrUnstable, got %v", err)
	}
	q, err := NewMD1(100, 0.005) // rho = 0.5
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Load()-0.5) > 1e-15 {
		t.Errorf("load = %v", q.Load())
	}
}

func TestMD1DominantPoleSatisfiesEquation(t *testing.T) {
	// At the low loads the opening bracket's far end overflows f.
	for _, rho := range []float64{1e-6, 1e-4, 0.0032, 0.0042, 0.1, 0.3, 0.5, 0.7, 0.9, 0.97} {
		q, err := NewMD1(rho/0.002, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		g, err := q.DominantPole()
		if err != nil {
			t.Fatal(err)
		}
		if g <= 0 {
			t.Fatalf("rho=%v: gamma=%v not positive", rho, g)
		}
		resid := q.Lambda*(math.Exp(g*q.S)-1) - g
		if math.Abs(resid) > 1e-6*g {
			t.Errorf("rho=%v: residual %v", rho, resid)
		}
	}
}

func TestMD1ExactCDFAgainstSimulation(t *testing.T) {
	q, err := NewMD1(160, 0.005) // rho = 0.8
	if err != nil {
		t.Fatal(err)
	}
	probes := []float64{0.001, 0.005, 0.01, 0.02, 0.04}
	res, err := simulateMD1(q, 2_000_000, 17, probes)
	if err != nil {
		t.Fatal(err)
	}
	// Lindley waits are strongly autocorrelated at rho=0.8 (relaxation time
	// ~1/(1-rho) arrivals), so inflate the iid binomial tolerance by an
	// effective-sample-size factor.
	autocorr := 1 + 2/(1-q.Load())
	for i, x := range probes {
		want := q.WaitTailExact(x)
		got := res.tailAt(i)
		if tol := autocorr * mcTol(want, 2_000_000, 6); math.Abs(got-want) > tol {
			t.Errorf("P(W>%v): exact %v vs sim %v (tol %v)", x, want, got, tol)
		}
	}
	// Mean wait: PK formula against simulation.
	if got, want := res.Summary.Mean(), q.MeanWait(); math.Abs(got-want) > 0.02*want {
		t.Errorf("mean wait sim %v vs PK %v", got, want)
	}
}

func TestMD1AsymptoticMatchesExactDeepTail(t *testing.T) {
	q, err := NewMD1(120, 0.005) // rho = 0.6
	if err != nil {
		t.Fatal(err)
	}
	// Dominant-pole asymptote with the exact residue:
	// P(W > x) ~ R e^{-gamma x}, R = (1-rho)/(lambda*S*e^{gamma*S} - 1).
	g, err := q.DominantPole()
	if err != nil {
		t.Fatal(err)
	}
	r := (1 - q.Load()) / (q.Lambda*q.S*math.Exp(g*q.S) - 1)
	asymTail := func(x float64) float64 { return r * math.Exp(-g*x) }
	// Where the exact tail is ~1e-3..1e-6 the dominant pole term should agree
	// to within a percent (both evaluations stay inside the series' stable
	// range lambda*x <= 30 here: lambda=120).
	for _, x := range []float64{0.05, 0.07, 0.09} {
		exact := q.WaitTailExact(x)
		approx := asymTail(x)
		if exact <= 0 {
			t.Fatalf("exact tail at %v nonpositive: %v", x, exact)
		}
		// Sub-dominant (complex) poles of the true MGF contribute a few
		// percent at tails ~1e-8; allow 5%.
		if rel := math.Abs(approx-exact) / exact; rel > 0.05 {
			t.Errorf("x=%v: asym %v vs exact %v (rel %v)", x, approx, exact, rel)
		}
	}
	// The paper's eq-14 mix replaces the exact residue R by rho; the two
	// stay within a modest constant factor of each other, which is all the
	// approximation claims.
	paper, err := q.WaitMixPaper()
	if err != nil {
		t.Fatal(err)
	}
	ratio := paper.Tail(0.07) / asymTail(0.07)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("paper vs asymptotic tail ratio %v out of band", ratio)
	}
}

func TestNDD1Validation(t *testing.T) {
	if _, err := newNDD1(0, 1, 1, 1); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := newNDD1(100, 0.04, 80, 100_000); !errors.Is(err, ErrUnstable) {
		t.Error("accepted overload")
	}
}

func TestNDD1ExactBinomialAgainstSimulation(t *testing.T) {
	// 48 sources, 80-byte packets every 40 ms, 160 kB/s link: rho = 0.6.
	q, err := newNDD1(48, 0.040, 80, 160_000)
	if err != nil {
		t.Fatal(err)
	}
	probes := []float64{0.0005, 0.001, 0.002} // seconds of virtual wait
	res, err := simulateNDD1(q, 4000, 50, 23, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		got := res.tailAt(i)
		want := q.queueTailExactBinomial(x * q.C) // backlog bytes = C*wait
		if got <= 0 {
			t.Fatalf("no exceedances at probe %v; weak test", x)
		}
		// The dominant-term estimate ignores multiple crossing opportunities
		// (it keeps a single window), so it can undershoot by a small
		// constant factor; the paper treats it as an order-of-magnitude
		// tool. Accept a factor-5 band.
		ratio := want / got
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("P(V>%v): estimate %v vs sim %v (ratio %v)", x, want, got, ratio)
		}
	}
}

func TestNDD1ChernoffUpperBoundsExactish(t *testing.T) {
	q, err := newNDD1(100, 0.040, 100, 500_000) // rho = 0.5
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{500, 1000, 2000, 4000} {
		lg := q.queueTailChernoff(b)
		exact := q.queueTailExactBinomial(b)
		if exact <= 0 {
			continue
		}
		// Chernoff should be within ~1.2 decades above the exact-binomial
		// dominant term and never dramatically below it.
		diff := lg/math.Ln10 - math.Log10(exact)
		if diff < -0.3 || diff > 1.5 {
			t.Errorf("B=%v: chernoff 10^%.2f vs exact %v (diff %.2f decades)",
				b, lg/math.Ln10, exact, diff)
		}
	}
	// Monotone decreasing in B.
	prev := 0.1
	for _, b := range []float64{500, 1000, 2000, 4000, 8000} {
		lg := q.queueTailChernoff(b)
		if lg > prev+1e-12 {
			t.Errorf("chernoff not decreasing at B=%v", b)
		}
		prev = lg
	}
}

func TestNDD1PoissonLimitConvergence(t *testing.T) {
	// Eq. (11): scaling N and D together, the binomial estimate converges to
	// the Poisson one.
	base, err := newNDD1(20, 0.040, 100, 250_000) // rho = 0.2
	if err != nil {
		t.Fatal(err)
	}
	b := 1500.0
	poisson := base.queueTailPoisson(b)
	var prevGap float64 = math.Inf(1)
	for _, n := range []int{1, 4, 16, 64} {
		scaled, err := base.scaled(n)
		if err != nil {
			t.Fatal(err)
		}
		gap := math.Abs(scaled.queueTailChernoff(b) - poisson)
		if gap > prevGap+1e-9 {
			t.Errorf("scale %d: gap %v did not shrink (prev %v)", n, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.05*math.Abs(poisson) {
		t.Errorf("binomial estimate did not converge to Poisson: gap %v vs %v", prevGap, poisson)
	}
}

func TestNDD1PoissonMatchesMD1Pole(t *testing.T) {
	// The Poisson Chernoff exponent at large B decays at the M/D/1 dominant
	// pole rate (in backlog units: gamma/C per byte).
	q, err := newNDD1(100, 0.040, 100, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	md1, err := q.md1Limit()
	if err != nil {
		t.Fatal(err)
	}
	g, err := md1.DominantPole()
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := 20_000.0, 40_000.0
	slope := (q.queueTailPoisson(b2) - q.queueTailPoisson(b1)) / (b2 - b1)
	wantSlope := -g / q.C
	if math.Abs(slope-wantSlope) > 0.05*math.Abs(wantSlope) {
		t.Errorf("poisson decay %v per byte, want %v", slope, wantSlope)
	}
}

func TestDEK1Validation(t *testing.T) {
	if _, err := NewDEK1(0, 1, 2); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := NewDEK1(5, 2, 1); !errors.Is(err, ErrUnstable) {
		t.Error("accepted rho=2")
	}
	q, err := NewDEK1(9, 0.030, 0.060)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Load()-0.5) > 1e-15 || math.Abs(q.Beta()-300) > 1e-9 {
		t.Errorf("load=%v beta=%v", q.Load(), q.Beta())
	}
}

func TestDEK1ZetasSatisfyEquation(t *testing.T) {
	for _, k := range []int{1, 2, 5, 9, 20, 28} {
		for _, rho := range []float64{0.1, 0.5, 0.8, 0.95} {
			q, err := NewDEK1(k, rho*0.040, 0.040)
			if err != nil {
				t.Fatal(err)
			}
			zs, err := q.zetas()
			if err != nil {
				t.Fatalf("K=%d rho=%v: %v", k, rho, err)
			}
			if len(zs) != k {
				t.Fatalf("K=%d: %d roots", k, len(zs))
			}
			// zeta_1 real in (0,1) and largest in modulus (Appendix C).
			if imag(zs[0]) != 0 || !(real(zs[0]) > 0 && real(zs[0]) < 1) {
				t.Errorf("K=%d rho=%v: zeta_1 = %v", k, rho, zs[0])
			}
			for j, z := range zs {
				phase := complex(0, 2*math.Pi*float64(j)/float64(k))
				resid := cmplx.Abs(z - cmplx.Exp((z-1)/complex(rho, 0)+phase))
				if resid > 1e-9 {
					t.Errorf("K=%d rho=%v root %d: residual %v", k, rho, j+1, resid)
				}
				if cmplx.Abs(z) > 1 {
					t.Errorf("K=%d rho=%v root %d: |z| = %v > 1", k, rho, j+1, cmplx.Abs(z))
				}
				if cmplx.Abs(z) > cmplx.Abs(zs[0])+1e-12 {
					t.Errorf("K=%d rho=%v: |zeta_%d| exceeds |zeta_1|", k, rho, j+1)
				}
			}
			// Roots must be distinct.
			for i := range zs {
				for j := i + 1; j < len(zs); j++ {
					if cmplx.Abs(zs[i]-zs[j]) < 1e-9 {
						t.Errorf("K=%d rho=%v: duplicate roots %d,%d", k, rho, i, j)
					}
				}
			}
		}
	}
}

func TestDEK1WeightsSolveVandermondeSystem(t *testing.T) {
	// Appendix D: sum_j a_j * zeta_j^{-k} = 1 for k = 1..K.
	for _, k := range []int{1, 2, 5, 9, 20} {
		q, err := NewDEK1(k, 0.024, 0.040) // rho = 0.6
		if err != nil {
			t.Fatal(err)
		}
		zs, err := q.zetas()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := q.weights()
		if err != nil {
			t.Fatal(err)
		}
		for kk := 1; kk <= k; kk++ {
			var sum complex128
			var scale float64
			for j := range zs {
				term := ws[j] * cmplx.Pow(zs[j], complex(-float64(kk), 0))
				sum += term
				scale += cmplx.Abs(term)
			}
			// High powers of 1/zeta blow the terms up to ~1e14 before they
			// cancel back to 1, so judge the residual relative to the term
			// magnitudes (the identity itself holds exactly).
			if cmplx.Abs(sum-1) > 1e-10*(1+scale) {
				t.Errorf("K=%d eq %d: sum = %v (scale %g)", k, kk, sum, scale)
			}
		}
	}
}

func TestDEK1K1MatchesDM1ClosedForm(t *testing.T) {
	// K=1 is D/M/1: P(W > x) = sigma * e^{-mu(1-sigma)x} with
	// sigma = exp(-(1-sigma)/rho); "for the special case D/M/1 exactly the
	// same solution as in [15] is obtained".
	q, err := NewDEK1(1, 0.028, 0.040) // rho = 0.7, mu = 1/0.028
	if err != nil {
		t.Fatal(err)
	}
	rho := q.Load()
	sigma, err := xmath.Brent(func(s float64) float64 {
		return s - math.Exp(-(1-s)/rho)
	}, 1e-9, 1-1e-9, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	mu := q.Beta()
	for _, x := range []float64{0, 0.01, 0.05, 0.2} {
		want := sigma * math.Exp(-mu*(1-sigma)*x)
		if got := m.Tail(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("x=%v: %v want %v", x, got, want)
		}
	}
}

func TestDEK1WaitMixAgainstLindley(t *testing.T) {
	cases := []struct {
		k   int
		rho float64
	}{{2, 0.5}, {9, 0.5}, {9, 0.8}, {20, 0.7}}
	for _, c := range cases {
		T := 0.060
		q, err := NewDEK1(c.k, c.rho*T, T)
		if err != nil {
			t.Fatal(err)
		}
		m, err := q.WaitMix()
		if err != nil {
			t.Fatalf("K=%d rho=%v: %v", c.k, c.rho, err)
		}
		probes := []float64{0.2 * T, 0.5 * T, T, 2 * T}
		const n = 2_000_000
		bursts, _, err := simulateDEK1(q, n, uint64(100*c.k)+uint64(c.rho*10), probes, probes)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range probes {
			want := m.Tail(x)
			got := bursts.tailAt(i)
			tol := mcTol(want, n, 8)
			if math.Abs(got-want) > tol {
				t.Errorf("K=%d rho=%v P(W>%v): analytic %v vs sim %v (tol %v)",
					c.k, c.rho, x, want, got, tol)
			}
		}
		// Mean wait agreement.
		mw, err := q.meanWait()
		if err != nil {
			t.Fatal(err)
		}
		if simMean := bursts.Summary.Mean(); math.Abs(simMean-mw) > 0.03*(mw+1e-6) {
			t.Errorf("K=%d rho=%v mean wait: analytic %v vs sim %v", c.k, c.rho, mw, simMean)
		}
	}
}

func TestDEK1PacketDelayMixAgainstLindley(t *testing.T) {
	T := 0.060
	q, err := NewDEK1(9, 0.5*T, T)
	if err != nil {
		t.Fatal(err)
	}
	w, err := q.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	// The served packet-delay law: burst wait plus position delay (eq. 29).
	m, err := mgf.NewSum(mgf.Mix{Atom: 1}, w, q.K, q.Beta())
	if err != nil {
		t.Fatal(err)
	}
	probes := []float64{0.01, 0.03, 0.06, 0.12}
	const n = 2_000_000
	_, packets, err := simulateDEK1(q, n, 77, probes, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		want := m.Tail(x)
		got := packets.tailAt(i)
		tol := mcTol(want, n, 8)
		if math.Abs(got-want) > tol {
			t.Errorf("P(D>%v): analytic %v vs sim %v (tol %v)", x, want, got, tol)
		}
	}
	// Mean packet delay = mean burst wait + mean half burst.
	mw, _ := q.meanWait()
	wantMean := mw + q.MeanBurst/2
	if math.Abs(m.Mean()-wantMean) > 1e-9 {
		t.Errorf("mean packet delay %v, want %v", m.Mean(), wantMean)
	}
}

func TestDEK1PositionMixes(t *testing.T) {
	q, err := NewDEK1(9, 0.030, 0.060)
	if err != nil {
		t.Fatal(err)
	}
	// The uniform position law of eq. (34), as NewSum builds it.
	s, err := mgf.NewSum(mgf.Mix{Atom: 1}, mgf.Mix{Atom: 1}, q.K, q.Beta())
	if err != nil {
		t.Fatal(err)
	}
	_, _, u := s.Factors()
	// Mean position delay is half the mean burst (K/(2*beta)).
	if math.Abs(u.Mean()-q.MeanBurst/2) > 1e-12 {
		t.Errorf("uniform position mean = %v, want %v", u.Mean(), q.MeanBurst/2)
	}
	// Spot theta=1 is the whole burst: Erlang(K, beta).
	s1, err := q.positionMixSpot(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Mean()-q.MeanBurst) > 1e-12 {
		t.Errorf("spot(1) mean = %v", s1.Mean())
	}
	// Spot theta=0 is no delay.
	s0, err := q.positionMixSpot(0)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Atom != 1 {
		t.Errorf("spot(0) = %+v", s0)
	}
	// Uniform tail is bounded by the worst-case spot tail everywhere.
	for _, x := range []float64{0.01, 0.03, 0.09} {
		if u.Tail(x) > s1.Tail(x)+1e-12 {
			t.Errorf("uniform tail exceeds worst-case spot at %v", x)
		}
	}
	// K=1 uniform case is rejected (branch point, eq. 33).
	q1, err := NewDEK1(1, 0.020, 0.060)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgf.NewSum(mgf.Mix{Atom: 1}, mgf.Mix{Atom: 1}, q1.K, q1.Beta()); err == nil {
		t.Error("K=1 uniform position should be rejected")
	}
	if _, err := q.positionMixSpot(1.5); err == nil {
		t.Error("accepted theta>1")
	}
}

func TestDEK1AtomIsIdleProbability(t *testing.T) {
	T := 0.040
	q, err := NewDEK1(9, 0.6*T, T)
	if err != nil {
		t.Fatal(err)
	}
	m, err := q.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	bursts, _, err := simulateDEK1(q, n, 31, []float64{1e-12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pWait := bursts.tailAt(0) // fraction of bursts that waited
	if math.Abs((1-m.Atom)-pWait) > mcTol(pWait, n, 8) {
		t.Errorf("P(wait>0): analytic %v vs sim %v", 1-m.Atom, pWait)
	}
}

func BenchmarkDEK1WaitMixK9(b *testing.B) {
	q, _ := NewDEK1(9, 0.030, 0.060)
	for i := 0; i < b.N; i++ {
		if _, err := q.WaitMix(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDEK1WaitMixK28(b *testing.B) {
	q, _ := NewDEK1(28, 0.030, 0.060)
	for i := 0; i < b.N; i++ {
		if _, err := q.WaitMix(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDEK1WaitMixK200 measures the wait law at the Erlang-order cap
// and load 0.5, with its allocations. There the negligible-wait rule makes
// W the unit atom, so it times the rule alone: no solve, no allocation.
func BenchmarkDEK1WaitMixK200(b *testing.B) {
	q, _ := NewDEK1(200, 0.030, 0.060)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := q.WaitMix(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDEK1WaitMixK200Kept measures the wait law, root solve and
// weights included, at the Erlang-order cap and load 0.75, where W keeps
// its poles, with its allocations: W takes a constant number.
func BenchmarkDEK1WaitMixK200Kept(b *testing.B) {
	q, _ := NewDEK1(200, 0.045, 0.060)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := q.WaitMix(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLindleyDEK1(b *testing.B) {
	q, _ := NewDEK1(9, 0.030, 0.060)
	for i := 0; i < b.N; i++ {
		if _, _, err := simulateDEK1(q, 100_000, 1, []float64{0.05}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDD1Chernoff(b *testing.B) {
	q, _ := newNDD1(100, 0.040, 100, 500_000)
	for i := 0; i < b.N; i++ {
		q.queueTailChernoff(2000)
	}
}

func BenchmarkNDD1Poisson(b *testing.B) {
	q, _ := newNDD1(100, 0.040, 100, 500_000)
	for i := 0; i < b.N; i++ {
		q.queueTailPoisson(2000)
	}
}

func BenchmarkNDD1ExactBinomial(b *testing.B) {
	q, _ := newNDD1(100, 0.040, 100, 500_000)
	for i := 0; i < b.N; i++ {
		q.queueTailExactBinomial(2000)
	}
}
