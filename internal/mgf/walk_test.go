package mgf_test

import (
	"fmt"
	"math"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
)

// paperModel is the Figure 3 scenario (PS=125B, T=60ms) at Erlang order k.
func paperModel(k int) core.Model {
	m := core.DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = k
	return m
}

// tracedInversion inverts at level p from start with the tail+density pass
// f, as Quantile does, and checks the live bracket: every pass must land
// strictly inside (lo, hi), lo the largest point seen so far whose tail is
// above 1-p and hi the smallest other point (0 and +Inf before any). It returns the answer, the number of passes at x > 0 and the
// first pass that left the bracket, if any.
func tracedInversion(f func(float64) (float64, float64), start, p, tol float64) (x float64, passes int, escape string, err error) {
	lo, hi := 0.0, math.Inf(1)
	traced := func(v float64) (float64, float64) {
		t, d := f(v)
		if v <= 0 {
			return t, d
		}
		passes++
		if !(v > lo && v < hi) && escape == "" {
			escape = fmt.Sprintf("pass %d at %g outside the live bracket (%g, %g)", passes, v, lo, hi)
		}
		if t > 1-p {
			lo = max(lo, v)
		} else {
			hi = min(hi, v)
		}
		return t, d
	}
	x, err = mgf.InvertTail(traced, start, p, tol)
	return x, passes, escape, err
}

// sumInversion traces s's inversion at level p exactly as Sum.Quantile
// runs it.
func sumInversion(s mgf.Sum, p float64) (x float64, passes int, escape string, err error) {
	return tracedInversion(mgf.SumTailDensity(s), max(mgf.SeedOf(s, p), s.Mean()), p, 1e-10)
}

// mixInversion traces m's inversion at level p exactly as Mix.Quantile
// runs it.
func mixInversion(m mgf.Mix, p float64) (x float64, passes int, escape string, err error) {
	return tracedInversion(mgf.MixTailDensity(m), m.Mean(), p, 1e-12)
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

// TestNewtonStaysInBracket pins the Newton inversion on every Sum law of the
// paper grid (K 2, 9, 20, 30), on every probe of a §4 dimensioning
// bisection (K=9, 60 ms bound), and on each law's three factor Mixes at the
// same level. Every pass lands strictly inside the live bracket the
// previous passes left, the traced inversion returns the bits Quantile
// serves, a second cold Quantile returns them again (the start depends on
// nothing but the law and the level, so no inversion carries state to the
// next), and the factor seed never exceeds the answer. Newton stays inside
// the bracket on those laws by itself, so the tail (1+x)^-3 with a density
// 10 or 100 times too shallow (Newton overshoots) or of the wrong sign
// drives the fallbacks: their passes must stay inside the bracket too, and
// the answer within 1e-9 of 1e-5^(-1/3) - 1.
func TestNewtonStaysInBracket(t *testing.T) {
	want := math.Pow(1e-5, -1.0/3) - 1
	for _, scale := range []float64{0.1, 0.01, -1} {
		f := func(x float64) (float64, float64) { return math.Pow(1+x, -3), scale * 3 * math.Pow(1+x, -4) }
		x, n, escape, err := tracedInversion(f, 1, 0.99999, 1e-10)
		if err != nil || escape != "" || !(math.Abs(x-want) <= 1e-9*want) {
			t.Errorf("density x%g: %v after %d passes (%v) %s; want %v", scale, x, n, err, escape, want)
		}
	}
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

	sumPasses, mixPasses, mixes := 0, 0, 0
	for _, pt := range points {
		s := pt.law
		got, n, escape, err := sumInversion(s, pt.p)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		if escape != "" {
			t.Errorf("%s: %s", pt.name, escape)
		}
		sumPasses += n
		for i := range 2 {
			if served, err := s.Quantile(pt.p); err != nil || served != got {
				t.Errorf("%s: Quantile call %d = %v, %v; traced inversion %v", pt.name, i, served, err, got)
			}
		}
		if seed := mgf.SeedOf(s, pt.p); !(seed <= got) {
			t.Errorf("%s: seed %v exceeds the answer %v", pt.name, seed, got)
		}
		u, w, p := s.Factors()
		for j, f := range []mgf.Mix{u, w, p} {
			got, n, escape, err := mixInversion(f, pt.p)
			if err != nil {
				t.Fatalf("%s factor %d: %v", pt.name, j, err)
			}
			if escape != "" {
				t.Errorf("%s factor %d: %s", pt.name, j, escape)
			}
			if served, err := f.Quantile(pt.p); err != nil || served != got {
				t.Errorf("%s factor %d: Quantile = %v, %v; traced inversion %v", pt.name, j, served, err, got)
			}
			mixPasses += n
			mixes++
		}
	}
	t.Logf("%d Sum laws: %.2f passes each; %d factor Mixes: %.2f passes each",
		len(points), float64(sumPasses)/float64(len(points)), mixes, float64(mixPasses)/float64(mixes))
}

// TestQuantileNotNegative pins that an inversion returns a point of its
// final bracket, which starts at lo = 0. It inverts the M/E_K/1 wait law
// at K 1-200 at the level p = 1-rho, where its mass beyond 0 is 1-p up to
// rounding and the answer is 0: a converged Newton step from above can end
// a few ulps below 0 (-4.3e-15 at K = 9, rho = 0.01, p = 0.99), which
// Quantile must not return.
func TestQuantileNotNegative(t *testing.T) {
	for k := 1; k <= 200; k++ {
		for _, rho := range []float64{1e-4, 1e-3, 0.01, 0.02} {
			q, err := queueing.NewMEK1(rho, k, float64(k))
			if err != nil {
				t.Fatal(err)
			}
			sol, err := q.Solve()
			if err != nil {
				t.Fatalf("K=%d rho=%g: %v", k, rho, err)
			}
			w, err := sol.WaitMix()
			if err != nil {
				t.Fatalf("K=%d rho=%g: %v", k, rho, err)
			}
			if x, err := w.Quantile(1 - rho); err != nil || !(x >= 0) {
				t.Errorf("K=%d rho=%g p=%g: quantile %v, %v", k, rho, 1-rho, x, err)
			}
		}
	}
}

// maxSumPasses is the most tail+density passes a Sum inversion of
// TestTailPassesPerInversion's grid may take.
const maxSumPasses = 8

// TestTailPassesPerInversion counts the tail+density passes at x > 0 of
// every Sum inversion over K 2-30 x rho 0.05-0.98 (step 0.03) x levels
// 0.99-0.99999 (3,712 laws), and of their three factor Mixes. A Sum
// inversion averages at most 4.5 passes and takes at most maxSumPasses;
// no inversion reaches maxTailPasses. The counts are deterministic.
func TestTailPassesPerInversion(t *testing.T) {
	levels := []float64{0.99, 0.999, 0.9999, 0.99999}
	sums, sumPasses, sumWorst := 0, 0, 0
	mixes, mixPasses, mixWorst := 0, 0, 0
	for k := 2; k <= 30; k++ {
		m := paperModel(k)
		for i := range 32 {
			rho := 0.05 + 0.03*float64(i)
			s := compiledSum(t, m.WithDownlinkLoad(rho))
			u, w, pos := s.Factors()
			for _, p := range levels {
				_, n, _, err := sumInversion(s, p)
				if err != nil {
					t.Fatalf("K=%d rho=%g p=%g: %v", k, rho, p, err)
				}
				sums++
				sumPasses += n
				sumWorst = max(sumWorst, n)
				for _, f := range []mgf.Mix{u, w, pos} {
					_, n, _, err := mixInversion(f, p)
					if err != nil {
						t.Fatalf("K=%d rho=%g p=%g factor: %v", k, rho, p, err)
					}
					mixes++
					mixPasses += n
					mixWorst = max(mixWorst, n)
				}
			}
		}
	}
	mean := float64(sumPasses) / float64(sums)
	if !(mean <= 4.5) || sumWorst > maxSumPasses {
		t.Errorf("%d Sum inversions: %.3f passes on average, at most %d; want <= 4.5 and <= %d", sums, mean, sumWorst, maxSumPasses)
	}
	if mixWorst >= mgf.MaxTailPasses {
		t.Errorf("a factor Mix inversion took %d passes, at the cap %d", mixWorst, mgf.MaxTailPasses)
	}
	t.Logf("%d Sum inversions: %.3f passes on average, at most %d", sums, mean, sumWorst)
	t.Logf("%d factor Mix inversions: %.3f passes on average, at most %d", mixes, float64(mixPasses)/float64(mixes), mixWorst)
}

// TestTailDensityMatchesCentralDifference holds the density of the
// tail+density pass within 1e-6 relative of the central difference of the
// tail, (T(x-h) - T(x+h))/2h with h = 1e-5 x, for Sum laws and their
// factor Mixes on the paper grid at a quarter of, at, and at three times
// their 0.99999 quantile.
func TestTailDensityMatchesCentralDifference(t *testing.T) {
	const tol = 1e-6
	check := func(name string, f func(float64) (float64, float64), q float64) {
		for _, x := range []float64{q / 4, q, 3 * q} {
			h := 1e-5 * x
			tm, _ := f(x - h)
			tp, _ := f(x + h)
			_, d := f(x)
			want := (tm - tp) / (2 * h)
			if rel := math.Abs(d-want) / math.Abs(want); !(rel <= tol) {
				t.Errorf("%s: density(%g) = %.12g, central difference %.12g (rel %.3g)", name, x, d, want, rel)
			}
		}
	}
	for _, k := range []int{2, 9, 20, 30} {
		for _, rho := range []float64{0.05, 0.5, 0.95} {
			s := paperSum(t, k, rho)
			name := fmt.Sprintf("K=%d rho=%g", k, rho)
			q, err := s.Quantile(0.99999)
			if err != nil {
				t.Fatal(err)
			}
			check(name+" Sum", mgf.SumTailDensity(s), q)
			u, w, p := s.Factors()
			for j, f := range []mgf.Mix{u, w, p} {
				q, err := f.Quantile(0.99999)
				if err != nil {
					t.Fatal(err)
				}
				if q > 0 {
					check(fmt.Sprintf("%s factor %d", name, j), mgf.MixTailDensity(f), q)
				}
			}
		}
	}
}

// benchLevels are the four quantile levels the inversion benchmarks cover.
var benchLevels = []float64{0.99, 0.999, 0.9999, 0.99999}

// BenchmarkSumQuantile measures cold Sum inversions of the Figure 3 law at
// rho=0.5: one op inverts it at each of benchLevels.
func BenchmarkSumQuantile(b *testing.B) {
	for _, k := range []int{9, 30} {
		s := paperSum(b, k, 0.5)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for b.Loop() {
				for _, p := range benchLevels {
					if _, err := s.Quantile(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMixQuantile measures the factor inversions of Decompose on the
// Figure 3 law at K=9, rho=0.5: one op inverts U, W and P at each of
// benchLevels.
func BenchmarkMixQuantile(b *testing.B) {
	u, w, p := paperSum(b, 9, 0.5).Factors()
	for b.Loop() {
		for _, level := range benchLevels {
			for _, f := range []mgf.Mix{u, w, p} {
				if _, err := f.Quantile(level); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
