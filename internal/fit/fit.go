// Package fit estimates traffic-model parameters from data, reproducing the
// fitting procedures the paper and its sources used:
//
//   - Färber's least-squares fit of the extreme (Gumbel) density to a packet
//     size / inter-arrival histogram (§2.1, Table 1);
//   - moment and maximum-likelihood estimators for the Gumbel, lognormal,
//     normal and exponential laws he compared;
//   - the paper's own two ways of choosing the Erlang order K of the burst
//     size law (§2.3.2): matching the coefficient of variation (K = 28 for
//     CoV 0.19) versus fitting the tail distribution function (K ~ 15-20,
//     Figure 1).
//
// The repro note for this paper flags "weak statistics libraries for
// distribution fitting" as the Go gap; this package closes it with stdlib
// code only (the optimizer is xmath.NelderMead).
package fit

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fpsping/internal/dist"
	"fpsping/internal/stats"
	"fpsping/internal/xmath"
)

// ErrBadInput reports unusable data (empty, degenerate, or out of domain).
var ErrBadInput = errors.New("fit: bad input")

// GumbelByMoments matches the Gumbel mean and standard deviation:
// b = sigma*sqrt(6)/pi, a = mean - EulerGamma*b.
func GumbelByMoments(mean, stddev float64) (dist.Gumbel, error) {
	if !(stddev > 0) {
		return dist.Gumbel{}, fmt.Errorf("%w: stddev %g", ErrBadInput, stddev)
	}
	b := stddev * math.Sqrt(6) / math.Pi
	return dist.NewGumbel(mean-dist.EulerGamma*b, b)
}

// GumbelLeastSquares fits Ext(a,b) to a histogram by minimizing the summed
// squared difference between the model density and the histogram density:
// Färber's procedure for Table 1. The moment fit seeds the search.
func GumbelLeastSquares(h *stats.Histogram) (dist.Gumbel, error) {
	if h.Total() == 0 {
		return dist.Gumbel{}, fmt.Errorf("%w: empty histogram", ErrBadInput)
	}
	centers := h.Centers()
	dens := h.Densities()
	mean, sd := histogramMoments(h)
	seed, err := GumbelByMoments(mean, sd)
	if err != nil {
		return dist.Gumbel{}, err
	}
	obj := func(p []float64) float64 {
		a, b := p[0], p[1]
		if b <= 0 {
			return math.Inf(1)
		}
		g := dist.Gumbel{A: a, B: b}
		var sse float64
		for i := range centers {
			d := g.PDF(centers[i]) - dens[i]
			sse += d * d
		}
		return sse
	}
	best, _ := xmath.NelderMead(obj, []float64{seed.A, seed.B}, xmath.NelderMeadOptions{MaxIter: 5000})
	return dist.NewGumbel(best[0], best[1])
}

// histogramMoments returns the count-weighted mean and standard deviation of
// a histogram's bin centers.
func histogramMoments(h *stats.Histogram) (mean, sd float64) {
	var n float64
	for i := 0; i < h.Bins(); i++ {
		c := float64(h.Count(i))
		n += c
		mean += c * h.Center(i)
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean /= n
	var ss float64
	for i := 0; i < h.Bins(); i++ {
		d := h.Center(i) - mean
		ss += float64(h.Count(i)) * d * d
	}
	return mean, math.Sqrt(ss / n)
}

// GumbelMLE computes the maximum-likelihood Ext(a,b) fit by solving the
// profile likelihood equation for b with Brent's method.
func GumbelMLE(xs []float64) (dist.Gumbel, error) {
	if len(xs) < 2 {
		return dist.Gumbel{}, fmt.Errorf("%w: need >= 2 samples", ErrBadInput)
	}
	s := stats.Describe(xs)
	mean := s.Mean()
	sd := s.StdDev()
	if !(sd > 0) {
		return dist.Gumbel{}, fmt.Errorf("%w: degenerate sample", ErrBadInput)
	}
	// Profile equation: g(b) = b - mean + sum(x e^{-x/b})/sum(e^{-x/b}) = 0.
	g := func(b float64) float64 {
		// Stabilize the exponentials around the max of -x/b.
		maxe := math.Inf(-1)
		for _, x := range xs {
			if v := -x / b; v > maxe {
				maxe = v
			}
		}
		var num, den float64
		for _, x := range xs {
			w := math.Exp(-x/b - maxe)
			num += x * w
			den += w
		}
		return b - mean + num/den
	}
	seed := sd * math.Sqrt(6) / math.Pi
	lo, hi := seed/10, seed*10
	for g(lo) > 0 && lo > 1e-12 {
		lo /= 10
	}
	for g(hi) < 0 && hi < 1e12 {
		hi *= 10
	}
	b, err := xmath.Brent(g, lo, hi, 1e-12*seed)
	if err != nil {
		return dist.Gumbel{}, fmt.Errorf("fit: gumbel MLE scale: %w", err)
	}
	// a = -b log( mean(e^{-x/b}) ), stabilized the same way.
	maxe := math.Inf(-1)
	for _, x := range xs {
		if v := -x / b; v > maxe {
			maxe = v
		}
	}
	var den float64
	for _, x := range xs {
		den += math.Exp(-x/b - maxe)
	}
	a := -b * (math.Log(den/float64(len(xs))) + maxe)
	return dist.NewGumbel(a, b)
}

// LogNormalMLE computes the closed-form lognormal fit (moments of log x).
func LogNormalMLE(xs []float64) (dist.LogNormal, error) {
	if len(xs) < 2 {
		return dist.LogNormal{}, fmt.Errorf("%w: need >= 2 samples", ErrBadInput)
	}
	var s stats.Summary
	for _, x := range xs {
		if x <= 0 {
			return dist.LogNormal{}, fmt.Errorf("%w: lognormal needs positive data", ErrBadInput)
		}
		s.Add(math.Log(x))
	}
	return dist.NewLogNormal(s.Mean(), s.StdDev())
}

// NormalMLE computes the closed-form Gaussian fit.
func NormalMLE(xs []float64) (dist.Normal, error) {
	if len(xs) < 2 {
		return dist.Normal{}, fmt.Errorf("%w: need >= 2 samples", ErrBadInput)
	}
	s := stats.Describe(xs)
	return dist.NewNormal(s.Mean(), s.StdDev())
}

// Candidate pairs a fitted model with its goodness of fit, for ranking the
// alternatives Färber compared (extreme vs. shifted lognormal vs. Weibull).
type Candidate struct {
	Name  string
	Model dist.Distribution
	KS    stats.KSResult
}

// RankByKS fits nothing itself; it scores the given models against the data
// with the one-sample KS test and returns them best (smallest D) first.
func RankByKS(xs []float64, models map[string]dist.Distribution) ([]Candidate, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empty sample", ErrBadInput)
	}
	out := make([]Candidate, 0, len(models))
	for name, m := range models {
		ks, err := stats.KolmogorovSmirnov(xs, m.CDF)
		if err != nil {
			return nil, err
		}
		out = append(out, Candidate{Name: name, Model: m, KS: ks})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].KS.D != out[j].KS.D {
			return out[i].KS.D < out[j].KS.D
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
