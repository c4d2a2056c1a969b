// Package stats provides the descriptive statistics the paper's measurement
// methodology uses: mean/CoV summaries (Tables 1-3), histograms and empirical
// tail distribution functions (Figure 1), streaming quantile estimation for
// simulator output, and goodness-of-fit tests for the fitted traffic models.
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrEmpty reports an operation on an empty data set.
var ErrEmpty = errors.New("stats: empty data")

// Summary accumulates moments online (Welford's algorithm) so traces never
// need to be buffered just to report Table-3 style statistics.
type Summary struct {
	n        int
	mean     float64
	m2       float64
	min, max float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll folds every value of xs into the summary.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Merge combines another summary into s (parallel Welford merge).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Count returns the number of samples folded in.
func (s *Summary) Count() int { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the unbiased sample variance (NaN for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation (std dev / mean): the statistic
// the paper's Tables 1-3 report alongside the mean.
func (s *Summary) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return math.Inf(1)
	}
	return s.StdDev() / math.Abs(m)
}

// Min returns the smallest sample (NaN when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample (NaN when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// String renders the summary in the mean/CoV form used by the paper's tables.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g cov=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.CoV(), s.Min(), s.Max())
}

// Describe summarizes xs in one call.
func Describe(xs []float64) Summary {
	var s Summary
	s.AddAll(xs)
	return s
}

// Quantile returns the p-quantile of xs (0 < p <= 1) using the
// order-statistic (lower) convention; xs need not be sorted.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return SortedQuantile(s, p), nil
}

// SortedQuantile is Quantile for data already sorted ascending.
func SortedQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// ECDF is the empirical cumulative distribution of a sample, with the tail
// (TDF) view the paper plots in Figure 1.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts xs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Tail returns the fraction of samples > x (the TDF of Figure 1).
func (e *ECDF) Tail(x float64) float64 {
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

// TDFSeries evaluates the tail distribution function on a regular grid of n
// points from lo to hi: the series behind Figure 1.
func (e *ECDF) TDFSeries(lo, hi float64, n int) (xs, tdf []float64) {
	xs = make([]float64, n)
	tdf = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		xs[i] = x
		tdf[i] = e.Tail(x)
	}
	return xs, tdf
}

// Quantile returns the order statistic at level p.
func (e *ECDF) Quantile(p float64) float64 { return SortedQuantile(e.sorted, p) }
