package stats

import (
	"math"
	"sort"

	"fpsping/internal/xmath"
)

// KSResult reports a one-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// D is the supremum distance between the empirical CDF and the model CDF.
	D float64
	// N is the sample size.
	N int
	// P is the asymptotic p-value (Kolmogorov distribution); small P rejects
	// the hypothesis that the sample comes from the model.
	P float64
}

// KolmogorovSmirnov computes the one-sample KS statistic of xs against the
// model CDF. The fit package uses it to rank candidate traffic models, as
// Färber ranked extreme vs. lognormal vs. Weibull fits.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(xs)
	if n == 0 {
		return KSResult{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := 0.0
	for i, x := range s {
		c := cdf(x)
		upper := float64(i+1)/float64(n) - c
		lower := c - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return KSResult{D: d, N: n, P: ksPValue(d, n)}, nil
}

// ksPValue evaluates the asymptotic Kolmogorov distribution
// Q(lambda) = 2 sum (-1)^{j-1} exp(-2 j^2 lambda^2) at the effective lambda.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	en := math.Sqrt(float64(n))
	lambda := (en + 0.12 + 0.11/en) * d
	sum := 0.0
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*float64(j)*float64(j)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	return xmath.Clamp(2*sum, 0, 1)
}
