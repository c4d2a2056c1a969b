package fit

import (
	"fmt"
	"math"

	"fpsping/internal/dist"
	"fpsping/internal/stats"
)

// ErlangOrderByCoV returns the Erlang order implied by a coefficient of
// variation: K = round(1/CoV^2). For the paper's measured burst-size CoV of
// 0.19 this gives K = 28 (§2.3.2, first method).
func ErlangOrderByCoV(cov float64) (int, error) {
	if !(cov > 0) {
		return 0, fmt.Errorf("%w: cov %g", ErrBadInput, cov)
	}
	k := int(math.Round(1 / (cov * cov)))
	if k < 1 {
		k = 1
	}
	return k, nil
}

// ErlangTailScore measures how well Erlang(k, k/mean) matches the empirical
// tail of the data: the mean is fixed to the sample mean (as in Figure 1) and
// the score is the mean squared distance between log10 tails, evaluated at
// the sample points with empirical tail in [floor, 1). Lower is better.
//
// Fitting in log space weighs the tail heavily - exactly what the paper's
// "visual fit" of Figure 1 does on its logarithmic axis.
type ErlangTailScore struct {
	K     int
	Rate  float64
	Score float64
}

// ErlangTailFit evaluates candidate orders ks against the empirical tail of
// xs and returns the per-order scores (in the given order) plus the best one.
// floor discards the deepest, noisiest empirical tail points (Figure 1's
// measured TDF bottoms out near 1/n); 1e-4 is a sensible default for ~1e4
// samples.
func ErlangTailFit(xs []float64, ks []int, floor float64) ([]ErlangTailScore, ErlangTailScore, error) {
	if len(xs) == 0 || len(ks) == 0 {
		return nil, ErlangTailScore{}, fmt.Errorf("%w: empty input", ErrBadInput)
	}
	if floor <= 0 {
		floor = 1e-4
	}
	s := stats.Describe(xs)
	mean := s.Mean()
	if !(mean > 0) {
		return nil, ErlangTailScore{}, fmt.Errorf("%w: nonpositive mean", ErrBadInput)
	}
	ecdf, err := stats.NewECDF(xs)
	if err != nil {
		return nil, ErlangTailScore{}, err
	}
	// Probe the tail on a grid from the median to the largest observation.
	lo := ecdf.Quantile(0.5)
	hi := ecdf.Quantile(1)
	grid, tdf := ecdf.TDFSeries(lo, hi, 200)

	scores := make([]ErlangTailScore, 0, len(ks))
	best := ErlangTailScore{Score: math.Inf(1)}
	for _, k := range ks {
		e, err := dist.ErlangByMean(k, mean)
		if err != nil {
			return nil, ErlangTailScore{}, err
		}
		var sse float64
		var n int
		for i, x := range grid {
			et := tdf[i]
			if et < floor || et >= 1 {
				continue
			}
			mt := e.Tail(x)
			if mt <= 0 {
				mt = 1e-300
			}
			d := math.Log10(et) - math.Log10(mt)
			sse += d * d
			n++
		}
		if n == 0 {
			return nil, ErlangTailScore{}, fmt.Errorf("%w: no tail points above floor %g", ErrBadInput, floor)
		}
		sc := ErlangTailScore{K: k, Rate: e.Rate, Score: sse / float64(n)}
		scores = append(scores, sc)
		if sc.Score < best.Score {
			best = sc
		}
	}
	return scores, best, nil
}

// ErlangOrderByTail scans K = 1..maxK and returns the tail-fit order: the
// paper's second method, which for the measured burst sizes lands in the
// 15-20 range rather than the CoV-implied 28.
func ErlangOrderByTail(xs []float64, maxK int, floor float64) (ErlangTailScore, error) {
	if maxK < 1 {
		return ErlangTailScore{}, fmt.Errorf("%w: maxK %d", ErrBadInput, maxK)
	}
	ks := make([]int, maxK)
	for i := range ks {
		ks[i] = i + 1
	}
	_, best, err := ErlangTailFit(xs, ks, floor)
	return best, err
}
