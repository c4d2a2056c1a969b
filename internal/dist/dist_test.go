package dist

import (
	"fmt"
	"math"
	"testing"
)

// moments returns the sample mean and (population) variance of xs.
func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return mean, variance
}

// TestAnalyticMomentsGolden draws 10k samples from every law and checks the
// sample moments against Mean()/Var(). Tolerances are ~5 standard errors, so
// with the fixed seeds the test is deterministic and a failure means the
// sampler and the analytic moments genuinely disagree.
func TestAnalyticMomentsGolden(t *testing.T) {
	const n = 10_000
	erl, err := NewErlang(18, 18.0/1852)
	if err != nil {
		t.Fatal(err)
	}
	logn, err := LogNormalByMoments(154, 0.28)
	if err != nil {
		t.Fatal(err)
	}
	mixBody, _ := ErlangByMean(40, 1800)
	mixTail, _ := ErlangByMean(6, 2600)
	mix, err := NewMixture([]Distribution{mixBody, mixTail}, []float64{0.97, 0.03})
	if err != nil {
		t.Fatal(err)
	}
	exp1 := Exponential{Rate: 1.0 / 60}
	uni, _ := NewUniform(40, 160)
	nor, _ := NewNormal(100, 15)
	gum, _ := NewGumbel(120, 36)

	cases := []struct {
		name string
		d    Distribution
		seed uint64
	}{
		{"deterministic", NewDeterministic(0.040), 1},
		{"exponential", exp1, 2},
		{"uniform", uni, 3},
		{"normal", nor, 4},
		{"lognormal", logn, 5},
		{"erlang", erl, 6},
		{"gumbel", gum, 7},
		{"mixture", mix, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			xs := SampleN(c.d, NewRNG(c.seed), n)
			wantMean, wantVar := c.d.Mean(), c.d.Var()
			if wantVar == 0 {
				// Degenerate law: every draw must equal the mean exactly
				// (sample moments would only measure summation error).
				for i, x := range xs {
					if x != wantMean {
						t.Fatalf("draw %d = %v, want exactly %v", i, x, wantMean)
					}
				}
			} else {
				gotMean, gotVar := moments(xs)
				// Standard error of the mean is sd/sqrt(n); 5x headroom.
				meanTol := 5 * math.Sqrt(wantVar/n)
				if math.Abs(gotMean-wantMean) > meanTol {
					t.Errorf("sample mean %v, analytic %v (tol %v)", gotMean, wantMean, meanTol)
				}
				// Variance of the sample variance is ~(kurtosis-1) var^2/n;
				// a flat 15% relative band covers every law here at n=10k.
				if math.Abs(gotVar-wantVar)/wantVar > 0.15 {
					t.Errorf("sample var %v, analytic %v", gotVar, wantVar)
				}
			}
		})
	}
}

// TestSeededDeterminism checks NewRNG streams are a pure function of the
// seed: same seed, same draws; different seed, different draws.
func TestSeededDeterminism(t *testing.T) {
	g, err := NewGumbel(55, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := SampleN(g, NewRNG(42), 1000)
	b := SampleN(g, NewRNG(42), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	c := SampleN(g, NewRNG(43), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 42 and 43 produced identical streams")
	}
}

// TestErlangOrderOneIsExponential is the property test pinning the stage
// construction: Erlang(1, beta) and the exponential with the same rate are
// the same law - equal moments, CDFs and sample paths everywhere.
func TestErlangOrderOneIsExponential(t *testing.T) {
	for _, beta := range []float64{0.01, 1, 3.5, 250} {
		e1, err := NewErlang(1, beta)
		if err != nil {
			t.Fatal(err)
		}
		ex := Exponential{Rate: beta}
		if e1.Mean() != ex.Mean() || e1.Var() != ex.Var() {
			t.Errorf("beta=%g: moments differ: (%v,%v) vs (%v,%v)",
				beta, e1.Mean(), e1.Var(), ex.Mean(), ex.Var())
		}
		mean := ex.Mean()
		for i := 0; i <= 40; i++ {
			x := mean * float64(i) / 8
			if d := math.Abs(e1.CDF(x) - ex.CDF(x)); d > 1e-12 {
				t.Errorf("beta=%g x=%g: CDF differ by %g", beta, x, d)
			}
		}
		// Same seed must give the identical sample path (both are one
		// ExpFloat64 stage scaled by the rate).
		xs := SampleN(e1, NewRNG(9), 100)
		ys := SampleN(ex, NewRNG(9), 100)
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("beta=%g draw %d: %v vs %v", beta, i, xs[i], ys[i])
			}
		}
	}
}

// TestGumbelClosedForms pins the identities the fit and traffic layers rely
// on: mean a + EulerGamma*b, variance pi^2 b^2/6, and the explicit median.
func TestGumbelClosedForms(t *testing.T) {
	g, err := NewGumbel(80, 5.7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.Mean(), 80+EulerGamma*5.7; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean %v, want %v", got, want)
	}
	if got, want := StdDev(g), 5.7*math.Pi/math.Sqrt(6); math.Abs(got-want) > 1e-12 {
		t.Errorf("sd %v, want %v", got, want)
	}
	// Median: a - b ln(ln 2).
	if got := g.CDF(80 - 5.7*math.Log(math.Log(2))); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF at the median %v, want 0.5", got)
	}
	// PDF integrates the CDF: finite-difference check.
	const h = 1e-6
	x := 85.0
	if got, want := g.PDF(x), (g.CDF(x+h)-g.CDF(x-h))/(2*h); math.Abs(got-want) > 1e-6 {
		t.Errorf("pdf %v, derivative %v", got, want)
	}
}

// TestLogNormalByMomentsRoundTrip checks the moment matching: the built law
// must report exactly the requested real-space mean and CoV.
func TestLogNormalByMomentsRoundTrip(t *testing.T) {
	for _, c := range []struct{ mean, cov float64 }{
		{154, 0.28}, {0.030, 0.65}, {1, 0.18},
	} {
		l, err := LogNormalByMoments(c.mean, c.cov)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l.Mean()-c.mean)/c.mean > 1e-12 {
			t.Errorf("mean %v, want %v", l.Mean(), c.mean)
		}
		if math.Abs(CoV(l)-c.cov)/c.cov > 1e-12 {
			t.Errorf("cov %v, want %v", CoV(l), c.cov)
		}
	}
}

// TestErlangTailClosedForm pins Tail against the independent k=2 closed form
// and the deep-tail log-space branch.
func TestErlangTailClosedForm(t *testing.T) {
	e, err := NewErlang(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.5, 1, 2.5} {
		want := math.Exp(-3*x) * (1 + 3*x)
		if got := e.Tail(x); math.Abs(got-want) > 1e-14 {
			t.Errorf("x=%v: tail %v, want %v", x, got, want)
		}
		if got := e.CDF(x) + e.Tail(x); math.Abs(got-1) > 1e-14 {
			t.Errorf("x=%v: CDF+Tail = %v", x, got)
		}
	}
	if e.Tail(0) != 1 || e.Tail(-1) != 1 {
		t.Error("tail must be 1 at and below 0")
	}
	// Log-space branch: bx >= 700 must stay finite, in [0,1], monotone.
	big, _ := NewErlang(30, 1)
	t1, t2 := big.Tail(705), big.Tail(750)
	if !(t1 >= 0 && t1 <= 1) || !(t2 >= 0 && t2 <= 1) || t2 > t1 {
		t.Errorf("deep tail broken: Tail(705)=%v Tail(750)=%v", t1, t2)
	}
}

// TestMixtureMomentsAndCDF checks the law of total variance and the weighted
// CDF on a hand-computable two-point mixture of deterministic laws.
func TestMixtureMomentsAndCDF(t *testing.T) {
	m, err := NewMixture(
		[]Distribution{NewDeterministic(10), NewDeterministic(20)},
		[]float64{3, 1}, // normalizes to 0.75/0.25
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mean(); got != 12.5 {
		t.Errorf("mean %v, want 12.5", got)
	}
	if got, want := m.Var(), 0.75*100+0.25*400-12.5*12.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("var %v, want %v", got, want)
	}
	if m.CDF(15) != 0.75 || m.CDF(25) != 1 || m.CDF(5) != 0 {
		t.Errorf("CDF steps wrong: %v %v %v", m.CDF(5), m.CDF(15), m.CDF(25))
	}
}

// TestStringers checks every law renders in the paper's notation - the CLI
// model listing formats laws with %s.
func TestStringers(t *testing.T) {
	e := Exponential{Rate: 2}
	u, _ := NewUniform(0, 1)
	n, _ := NewNormal(75, 7)
	l, _ := NewLogNormal(4.2, 0.3)
	g, _ := NewGumbel(120, 36)
	erl, _ := NewErlang(9, 0.5)
	m, _ := NewMixture([]Distribution{NewDeterministic(1)}, []float64{1})
	for _, c := range []struct {
		d    Distribution
		want string
	}{
		{NewDeterministic(0.04), "Det(0.04)"},
		{e, "Exp(2)"},
		{u, "U(0, 1)"},
		{n, "N(75, 7)"},
		{l, "LogN(4.2, 0.3)"},
		{g, "Ext(120, 36)"},
		{erl, "Erlang(9, 0.5)"},
		{m, "Mix(1*Det(1))"},
	} {
		if got := fmt.Sprintf("%v", c.d); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// TestConstructorErrorPaths checks every constructor rejects its invalid
// domain instead of building a silently broken law.
func TestConstructorErrorPaths(t *testing.T) {
	if _, err := NewUniform(2, 2); err == nil {
		t.Error("NewUniform accepted empty interval")
	}
	if _, err := NewNormal(0, 0); err == nil {
		t.Error("NewNormal accepted sigma 0")
	}
	if _, err := NewLogNormal(0, -1); err == nil {
		t.Error("NewLogNormal accepted negative sigma")
	}
	if _, err := LogNormalByMoments(-1, 0.3); err == nil {
		t.Error("LogNormalByMoments accepted negative mean")
	}
	if _, err := LogNormalByMoments(1, 0); err == nil {
		t.Error("LogNormalByMoments accepted cov 0")
	}
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("NewErlang accepted order 0")
	}
	if _, err := NewErlang(3, -1); err == nil {
		t.Error("NewErlang accepted negative rate")
	}
	if _, err := ErlangByMean(3, 0); err == nil {
		t.Error("ErlangByMean accepted mean 0")
	}
	if _, err := NewGumbel(0, 0); err == nil {
		t.Error("NewGumbel accepted scale 0")
	}
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("NewMixture accepted empty mixture")
	}
	if _, err := NewMixture([]Distribution{NewDeterministic(1)}, []float64{1, 2}); err == nil {
		t.Error("NewMixture accepted mismatched weights")
	}
	if _, err := NewMixture([]Distribution{NewDeterministic(1)}, []float64{-1}); err == nil {
		t.Error("NewMixture accepted negative weight")
	}
	if _, err := NewMixture([]Distribution{nil}, []float64{1}); err == nil {
		t.Error("NewMixture accepted nil component")
	}
	if _, err := NewMixture([]Distribution{NewDeterministic(1)}, []float64{0}); err == nil {
		t.Error("NewMixture accepted zero total weight")
	}
}

// TestCoVAndStdDevHelpers pins the package helpers the experiment tables use.
func TestCoVAndStdDevHelpers(t *testing.T) {
	if CoV(NewDeterministic(5)) != 0 {
		t.Error("deterministic CoV must be exactly 0")
	}
	e := Exponential{Rate: 0.25}
	if math.Abs(CoV(e)-1) > 1e-12 {
		t.Errorf("exponential CoV %v, want 1", CoV(e))
	}
	erl, _ := NewErlang(16, 2)
	if math.Abs(CoV(erl)-0.25) > 1e-12 {
		t.Errorf("Erlang(16) CoV %v, want 1/4", CoV(erl))
	}
	if math.Abs(StdDev(erl)-2) > 1e-12 {
		t.Errorf("Erlang(16,2) sd %v, want 2", StdDev(erl))
	}
}

func BenchmarkErlangSampleK18(b *testing.B) {
	e, _ := ErlangByMean(18, 1852)
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Sample(r)
	}
}

func BenchmarkErlangTailK28(b *testing.B) {
	e, _ := ErlangByMean(28, 1852)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Tail(2000)
	}
}
