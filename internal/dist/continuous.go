package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Deterministic is the degenerate law Det(v): all mass at Value. The paper
// uses it for periodic packet streams (Det(40 ms) client updates, server
// ticks) and fixed packet sizes.
type Deterministic struct {
	Value float64
}

// NewDeterministic returns Det(v). Every value is valid, so no error.
func NewDeterministic(v float64) Deterministic { return Deterministic{Value: v} }

// Sample returns Value.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Var returns 0.
func (d Deterministic) Var() float64 { return 0 }

// CDF is the unit step at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// Uniform is U(Lo, Hi), used for the injected-jitter extension ([23]'s
// uniform downstream jitter) and as an intentionally wrong model in
// goodness-of-fit tests.
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns U(lo, hi); requires lo < hi.
func NewUniform(lo, hi float64) (Uniform, error) {
	if !(lo < hi) {
		return Uniform{}, fmt.Errorf("dist: uniform bounds [%g, %g] need lo < hi", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample draws from U(Lo, Hi).
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return 0.5 * (u.Lo + u.Hi) }

// Var returns (Hi-Lo)^2/12.
func (u Uniform) Var() float64 {
	w := u.Hi - u.Lo
	return w * w / 12
}

// CDF is linear on [Lo, Hi].
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Normal is N(Mu, Sigma^2). Färber compared it against the extreme-value fit
// for packet sizes; the UT2003 model uses it for the burst IAT.
type Normal struct {
	Mu, Sigma float64
}

// NewNormal returns N(mu, sigma^2); sigma must be positive.
func NewNormal(mu, sigma float64) (Normal, error) {
	if !(sigma > 0) {
		return Normal{}, fmt.Errorf("dist: normal sigma %g must be > 0", sigma)
	}
	return Normal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws from N(Mu, Sigma^2).
func (n Normal) Sample(r *rand.Rand) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// Var returns Sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// CDF returns Phi((x-Mu)/Sigma).
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// LogNormal is LogN(Mu, Sigma): ln X ~ N(Mu, Sigma^2). Lang et al. fit it to
// Half-Life server packet sizes; the UT2003 model uses it for sizes and
// client IATs.
type LogNormal struct {
	// Mu and Sigma parameterize the law of ln X, not the moments of X;
	// use LogNormalByMoments to build from a real-space mean and CoV.
	Mu, Sigma float64
}

// NewLogNormal returns LogN(mu, sigma) with log-space parameters; sigma must
// be positive.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if !(sigma > 0) {
		return LogNormal{}, fmt.Errorf("dist: lognormal sigma %g must be > 0", sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// LogNormalByMoments builds the lognormal with the given real-space mean and
// coefficient of variation: sigma^2 = ln(1+cov^2), mu = ln(mean) - sigma^2/2.
// This is how the traffic models translate the paper's measured (mean, CoV)
// pairs into a law.
func LogNormalByMoments(mean, cov float64) (LogNormal, error) {
	if !(mean > 0) {
		return LogNormal{}, fmt.Errorf("dist: lognormal mean %g must be > 0", mean)
	}
	if !(cov > 0) {
		return LogNormal{}, fmt.Errorf("dist: lognormal cov %g must be > 0", cov)
	}
	s2 := math.Log1p(cov * cov)
	return LogNormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}, nil
}

// Sample draws exp(N(Mu, Sigma^2)).
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Var returns (e^{Sigma^2}-1) e^{2Mu+Sigma^2}.
func (l LogNormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Expm1(s2) * math.Exp(2*l.Mu+s2)
}

// CDF returns Phi((ln x - Mu)/Sigma) for x > 0.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// Gumbel is the extreme-value law Ext(A, B) with CDF exp(-exp(-(x-A)/B)):
// Färber's fit for Counter-Strike packet sizes and inter-arrival times
// (Table 1), and the family the fit package estimates.
type Gumbel struct {
	A, B float64
}

// NewGumbel returns Ext(a, b); the scale b must be positive.
func NewGumbel(a, b float64) (Gumbel, error) {
	if !(b > 0) {
		return Gumbel{}, fmt.Errorf("dist: gumbel scale %g must be > 0", b)
	}
	return Gumbel{A: a, B: b}, nil
}

// Sample draws A - B ln(-ln U) by inversion.
func (g Gumbel) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 { // Float64 is [0,1); 0 would map to -Inf
		u = r.Float64()
	}
	return g.A - g.B*math.Log(-math.Log(u))
}

// Mean returns A + EulerGamma*B.
func (g Gumbel) Mean() float64 { return g.A + EulerGamma*g.B }

// Var returns pi^2 B^2 / 6.
func (g Gumbel) Var() float64 { return math.Pi * math.Pi * g.B * g.B / 6 }

// CDF returns exp(-exp(-(x-A)/B)).
func (g Gumbel) CDF(x float64) float64 {
	return math.Exp(-math.Exp(-(x - g.A) / g.B))
}

// PDF returns the density (1/B) e^{-z} e^{-e^{-z}} with z = (x-A)/B.
func (g Gumbel) PDF(x float64) float64 {
	z := (x - g.A) / g.B
	return math.Exp(-z-math.Exp(-z)) / g.B
}

// String renders the laws in the paper's notation: Det(v), U(lo, hi),
// N(mu, sigma), LogN(mu, sigma) and Färber's Ext(a, b).

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }

func (u Uniform) String() string { return fmt.Sprintf("U(%g, %g)", u.Lo, u.Hi) }

func (n Normal) String() string { return fmt.Sprintf("N(%g, %g)", n.Mu, n.Sigma) }

func (l LogNormal) String() string { return fmt.Sprintf("LogN(%.3g, %.3g)", l.Mu, l.Sigma) }

func (g Gumbel) String() string { return fmt.Sprintf("Ext(%g, %g)", g.A, g.B) }
