package mgf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"fpsping/internal/dist"
)

// Test-only views of a Mix: the served pipeline reads tails and quantiles
// alone.

// Clone deep-copies m.
func (m Mix) Clone() Mix {
	out := Mix{Atom: m.Atom, Terms: make([]Term, len(m.Terms))}
	for i, t := range m.Terms {
		out.Terms[i] = Term{Pole: t.Pole, Coef: append([]complex128(nil), t.Coef...)}
	}
	return out
}

// Scale multiplies all mass by w (atom and coefficients).
func (m Mix) Scale(w float64) Mix {
	out := m.Clone()
	out.Atom *= w
	for i := range out.Terms {
		for j := range out.Terms[i].Coef {
			out.Terms[i].Coef[j] *= complex(w, 0)
		}
	}
	return out
}

// CDF returns P(X <= x) = TotalMass - Tail(x) (for a normalized mix, 1-Tail).
func (m Mix) CDF(x float64) float64 { return m.TotalMass() - m.Tail(x) }

// PDF returns the density of the absolutely continuous part at x > 0.
func (m Mix) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	var sum complex128
	for _, t := range m.Terms {
		px := t.Pole * complex(x, 0)
		// density of Erlang(n, p): p e^{-px} (px)^{n-1}/(n-1)!
		f := t.Pole * cmplx.Exp(-px) // n = 1
		last := len(t.Coef) - 1
		for i, c := range t.Coef {
			sum += c * f
			if i < last {
				f *= divRe(px, float64(i+1))
			}
		}
	}
	return real(sum)
}

// tailScan checks the shape Validate does not: at 65 uniform probes x_i on
// [0, 10·(mean+1e-9)], each m.Tail(x_i) lies in [-1e-7, 1+1e-7] and exceeds
// the one before by at most 1e-7. Validate checks the poles and
// coefficients alone, so every test that calls a law a probability law
// scans its tail too.
func tailScan(m Mix) error {
	const intervals = 64
	span := 10 * (m.Mean() + 1e-9)
	prev := math.Inf(1)
	for i := 0; i <= intervals; i++ {
		x := span * float64(i) / intervals
		ta := m.Tail(x)
		if !(ta <= prev+1e-7) {
			return fmt.Errorf("%w: tail increases at x=%v (%v -> %v)", ErrInvalid, x, prev, ta)
		}
		if !(-1e-7 <= ta && ta <= 1+1e-7) {
			return fmt.Errorf("%w: tail %v at x=%v", ErrInvalid, ta, x)
		}
		prev = ta
	}
	return nil
}

// checkLaw fails t unless m passes Validate and tailScan.
func checkLaw(t *testing.T, m Mix) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tailScan(m); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialMixBasics(t *testing.T) {
	m := NewExponential(1, 2) // Exp(2)
	checkLaw(t, m)
	if math.Abs(m.Mean()-0.5) > 1e-12 {
		t.Errorf("mean = %v", m.Mean())
	}
	if math.Abs(m.Tail(1)-math.Exp(-2)) > 1e-12 {
		t.Errorf("tail(1) = %v", m.Tail(1))
	}
	if math.Abs(m.PDF(0.3)-2*math.Exp(-0.6)) > 1e-12 {
		t.Errorf("pdf(0.3) = %v", m.PDF(0.3))
	}
	q, err := m.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-math.Log(2)/2) > 1e-9 {
		t.Errorf("median = %v", q)
	}
}

func TestErlangMixMatchesDist(t *testing.T) {
	m := newErlang(1, 9, 0.3)
	e, _ := dist.NewErlang(9, 0.3)
	checkLaw(t, m)
	for _, x := range []float64{0, 1, 10, 30, 60, 120} {
		if got, want := m.Tail(x), e.Tail(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("tail(%v) = %v, want %v", x, got, want)
		}
	}
	if math.Abs(m.Mean()-30) > 1e-9 {
		t.Errorf("mean = %v", m.Mean())
	}
}

func TestMulSamePoleGivesErlang(t *testing.T) {
	// Exp(l) * Exp(l) = Erlang(2, l).
	m := mul(NewExponential(1, 1.7), NewExponential(1, 1.7))
	checkLaw(t, m)
	for _, x := range []float64{0.1, 1, 3} {
		want := math.Exp(-1.7*x) * (1 + 1.7*x)
		if got := m.Tail(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("tail(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMulDistinctPolesHypoexponential(t *testing.T) {
	// Exp(a) * Exp(b), a != b: tail = (b e^{-ax} - a e^{-bx})/(b-a).
	a, b := 1.0, 2.5
	m := mul(NewExponential(1, a), NewExponential(1, b))
	checkLaw(t, m)
	for _, x := range []float64{0, 0.2, 1, 4} {
		want := (b*math.Exp(-a*x) - a*math.Exp(-b*x)) / (b - a)
		if got := m.Tail(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("tail(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestMulErlangCrossAgainstMonteCarlo(t *testing.T) {
	// Erlang(3, 1.2) + Erlang(5, 0.4): no simple closed form; cross-check the
	// partial-fraction product against Monte Carlo.
	m := mul(newErlang(1, 3, 1.2), newErlang(1, 5, 0.4))
	checkLaw(t, m)
	wantMean := 3/1.2 + 5/0.4
	if math.Abs(m.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", m.Mean(), wantMean)
	}
	e1, _ := dist.NewErlang(3, 1.2)
	e2, _ := dist.NewErlang(5, 0.4)
	r := dist.NewRNG(8)
	const n = 400_000
	probes := []float64{5, 10, 15, 25, 35}
	counts := make([]int, len(probes))
	for i := 0; i < n; i++ {
		x := e1.Sample(r) + e2.Sample(r)
		for j, p := range probes {
			if x > p {
				counts[j]++
			}
		}
	}
	for j, p := range probes {
		got := m.Tail(p)
		mc := float64(counts[j]) / n
		tol := 6*math.Sqrt(mc*(1-mc)/n) + 1e-6
		if math.Abs(got-mc) > tol {
			t.Errorf("tail(%v): analytic %v vs MC %v (tol %v)", p, got, mc, tol)
		}
	}
}

func TestMulWithAtomMM1Waiting(t *testing.T) {
	// M/M/1 waiting time: W = (1-rho) delta_0 + rho Exp(mu(1-rho)).
	rho, mu := 0.7, 3.0
	w := NewAtom(1 - rho)
	exp := NewExponential(rho, mu*(1-rho))
	w.Atom += 0 // keep explicit
	m := Mix{Atom: w.Atom, Terms: exp.Terms}
	checkLaw(t, m)
	for _, x := range []float64{0.01, 0.5, 2} {
		want := rho * math.Exp(-mu*(1-rho)*x)
		if got := m.Tail(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("tail(%v) = %v want %v", x, got, want)
		}
	}
	// Convolving two of them: mean adds, mass stays 1.
	conv := mul(m, m)
	checkLaw(t, conv)
	if math.Abs(conv.Mean()-2*m.Mean()) > 1e-12 {
		t.Errorf("mean not additive: %v vs %v", conv.Mean(), 2*m.Mean())
	}
	if math.Abs(conv.Atom-(1-rho)*(1-rho)) > 1e-12 {
		t.Errorf("atom = %v", conv.Atom)
	}
}

func TestMeanAdditivityUnderMul(t *testing.T) {
	a := mul(newErlang(0.4, 2, 1), NewAtom(1)) // 0.4 Erlang(2,1)
	a.Atom = 0.6
	b := newErlang(1, 4, 2.2)
	c := mul(a, b)
	checkLaw(t, c)
	if math.Abs(c.Mean()-(a.Mean()+b.Mean())) > 1e-10 {
		t.Errorf("mean %v, want %v", c.Mean(), a.Mean()+b.Mean())
	}
}

func TestEvalAtZeroIsMass(t *testing.T) {
	m := newErlang(0.3, 2, 5)
	m.Atom = 0.7
	if math.Abs(m.TotalMass()-1) > 1e-12 {
		t.Errorf("mass = %v", m.TotalMass())
	}
	// MGF at a negative real s must be <= 1 for a nonneg rv.
	v := m.Eval(-1)
	if real(v) > 1 || math.Abs(imag(v)) > 1e-12 {
		t.Errorf("Eval(-1) = %v", v)
	}
}

func TestComplexConjugatePairRealTail(t *testing.T) {
	// A valid density with complex poles: f(x) = c e^{-x}(1 - cos(wx)) shape
	// built from three terms p=1, p=1+iw, p=1-iw. Choose w=2:
	// f(x) = A e^{-x} - (A/2)(e^{-(1-2i)x} + e^{-(1+2i)x}).
	// Total mass: A(1 - Re( (1)/(1-2i)... )) - just normalize numerically.
	w := 2.0
	p1 := complex(1, 0)
	p2 := complex(1, w)
	p3 := complex(1, -w)
	// Unnormalized: coefficient of an exponential-type term with pole p and
	// amplitude a contributes a to the tail at 0.
	m := Mix{Terms: []Term{
		{Pole: p1, Coef: []complex128{complex(1, 0)}},
		{Pole: p2, Coef: []complex128{complex(-0.5, 0) * p1 / p2}},
		{Pole: p3, Coef: []complex128{complex(-0.5, 0) * p1 / p3}},
	}}
	mass := m.TotalMass()
	m = m.Scale(1 / mass)
	checkLaw(t, m)
	// Density must be nonnegative and real on a grid.
	for x := 0.0; x < 8; x += 0.05 {
		if f := m.PDF(x); f < -1e-9 {
			t.Fatalf("negative density %v at %v", f, x)
		}
	}
}

func TestDominantPole(t *testing.T) {
	m := Mix{Terms: []Term{
		{Pole: complex(3, 0), Coef: []complex128{complex(0.2, 0)}},
		{Pole: complex(0.5, 0), Coef: []complex128{complex(0.3, 0)}},
		{Pole: complex(2, 1), Coef: []complex128{complex(0.5, 0)}},
	}}
	p, ok := m.DominantPole()
	if !ok || real(p) != 0.5 {
		t.Errorf("dominant pole = %v ok=%v", p, ok)
	}
	if _, ok := NewAtom(1).DominantPole(); ok {
		t.Error("pure atom should have no dominant pole")
	}
}

func TestQuantileInverseOfTail(t *testing.T) {
	m := mul(newErlang(1, 4, 1.5), NewExponential(1, 0.8))
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 0.99999} {
		q, err := m.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.CDF(q); math.Abs(got-p) > 1e-8 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	// Atom-heavy mix: quantile below atom mass is 0.
	m2 := NewExponential(0.2, 1)
	m2.Atom = 0.8
	q, err := m2.Quantile(0.5)
	if err != nil || q != 0 {
		t.Errorf("quantile within atom = %v, %v", q, err)
	}
	if _, err := m.Quantile(0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestMulAllUnit(t *testing.T) {
	m := mulAll(NewAtom(1), NewExponential(1, 2), NewAtom(1))
	checkLaw(t, m)
	if math.Abs(m.Tail(1)-math.Exp(-2)) > 1e-12 {
		t.Errorf("mulAll changed the law: tail(1)=%v", m.Tail(1))
	}
}

func TestValidateCatchesBadMixes(t *testing.T) {
	bad := NewExponential(0.5, 1) // mass 0.5
	if err := bad.Validate(); err == nil {
		t.Error("accepted mass 0.5")
	}
	neg := NewExponential(1.4, 1)
	neg.Atom = -0.4
	if err := neg.Validate(); err == nil {
		t.Error("accepted negative atom")
	}
}

// TestValidateRejectsNonFiniteAndImaginaryMass pins the NaN-rejecting form
// of Validate's checks and the two-sided bound on the imaginary mass: a NaN
// atom, coefficient or pole, an infinite mean and an imaginary mass of
// either sign beyond 1e-8 are all invalid, while rounding-sized residues
// still validate.
func TestValidateRejectsNonFiniteAndImaginaryMass(t *testing.T) {
	withCoef := func(c complex128) Mix {
		return Mix{Terms: []Term{{Pole: 1, Coef: []complex128{c}}}}
	}
	nanAtom := NewExponential(1, 1)
	nanAtom.Atom = math.NaN()
	for name, m := range map[string]Mix{
		"NaN atom":                nanAtom,
		"NaN coefficient":         withCoef(complex(math.NaN(), 0)),
		"NaN pole":                {Terms: []Term{{Pole: complex(math.NaN(), 0), Coef: []complex128{1}}}},
		"infinite mean":           NewExponential(1, 1e-320),
		"imaginary mass -0.01":    withCoef(complex(1, -0.01)),
		"imaginary mass +0.01":    withCoef(complex(1, 0.01)),
		"imaginary mass -2e-8":    withCoef(complex(1, -2e-8)),
		"infinite mass":           withCoef(complex(math.Inf(1), 0)),
		"NaN imaginary mass":      withCoef(complex(1, math.NaN())),
		"infinite imaginary mass": withCoef(complex(1, math.Inf(-1))),
	} {
		if err := m.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Validate = %v, want ErrInvalid", name, err)
		}
	}
	for _, im := range []float64{-1e-9, 1e-9} {
		if err := withCoef(complex(1, im)).Validate(); err != nil {
			t.Errorf("imaginary mass %g: %v", im, err)
		}
	}
}

func TestAddTermMergesEqualPoles(t *testing.T) {
	var m Mix
	m.AddTerm(complex(2, 0), []complex128{1})
	m.AddTerm(complex(2, 0), []complex128{0, 0.5})
	if len(m.Terms) != 1 {
		t.Fatalf("terms = %d", len(m.Terms))
	}
	if m.Terms[0].Coef[0] != 1 || m.Terms[0].Coef[1] != 0.5 {
		t.Errorf("coef ladder = %v", m.Terms[0].Coef)
	}
}

func TestTaylorCoefficients(t *testing.T) {
	// Analytic check: for G(s) = (q/(q-s)), g_m(x) = q (q-x)^{-(m+1)}.
	tm := Term{Pole: complex(3, 0), Coef: []complex128{1}}
	x := complex(1, 0)
	g := taylorAt(tm, x, 4)
	for m := 0; m < 4; m++ {
		want := complex(3, 0) / cmplx.Pow(complex(2, 0), complex(float64(m+1), 0))
		if cmplx.Abs(g[m]-want) > 1e-12 {
			t.Errorf("g[%d] = %v, want %v", m, g[m], want)
		}
	}
}

func BenchmarkMulErlangTerms(b *testing.B) {
	x := newErlang(1, 9, 0.3)
	y := newErlang(1, 8, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(x, y)
	}
}

func BenchmarkTailEvaluation(b *testing.B) {
	m := mul(newErlang(1, 9, 0.3), newErlang(1, 8, 0.25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tail(50)
	}
}

func BenchmarkQuantile(b *testing.B) {
	m := mul(newErlang(1, 9, 0.3), newErlang(1, 8, 0.25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Quantile(0.99999); err != nil {
			b.Fatal(err)
		}
	}
}
