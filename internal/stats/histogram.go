package stats

import (
	"fmt"
	"math"
)

// Histogram counts samples in equal-width bins over [Lo, Hi); values outside
// the range count only toward Total. Färber's least-squares
// fits (reproduced by the fit package) match a candidate density against a
// histogram like this one.
type Histogram struct {
	Lo, Hi float64
	counts []int
	total  int
}

// NewHistogram builds an empty histogram with n equal bins on [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if !(lo < hi) || n < 1 {
		return nil, fmt.Errorf("stats: invalid histogram [%g,%g)/%d", lo, hi, n)
	}
	return &Histogram{Lo: lo, Hi: hi, counts: make([]int, n)}, nil
}

// HistogramFromData chooses a range and bin count from the data: the range is
// [min, max] stretched a hair, and the bin count follows the Freedman-
// Diaconis rule with a sqrt-rule fallback.
func HistogramFromData(xs []float64) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := Describe(xs)
	lo, hi := s.Min(), s.Max()
	if lo == hi {
		hi = lo + 1
	}
	q1, _ := Quantile(xs, 0.25)
	q3, _ := Quantile(xs, 0.75)
	iqr := q3 - q1
	n := 0
	if iqr > 0 {
		width := 2 * iqr / math.Cbrt(float64(len(xs)))
		n = int(math.Ceil((hi - lo) / width))
	}
	if n < 1 || n > 10_000 {
		n = int(math.Ceil(math.Sqrt(float64(len(xs)))))
	}
	if n < 1 {
		n = 1
	}
	h, err := NewHistogram(lo, hi*(1+1e-12)+1e-300, n)
	if err != nil {
		return nil, err
	}
	h.AddAll(xs)
	return h, nil
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Add tallies one sample.
func (h *Histogram) Add(x float64) {
	if x >= h.Lo && x < h.Hi {
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.counts)))
		if i >= len(h.counts) { // guard float rounding at the top edge
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
	h.total++
}

// AddAll tallies every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Count returns the number of samples in bin i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Total returns the number of samples seen, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BinWidth returns the common bin width.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.counts)) }

// Center returns the midpoint of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the normalized density estimate at bin i, so that the sum
// of Density(i)*BinWidth() over in-range bins approaches the in-range
// probability mass. It is the experimental PDF Färber fitted against.
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / (float64(h.total) * h.BinWidth())
}

// Densities returns the density estimate for every bin.
func (h *Histogram) Densities() []float64 {
	out := make([]float64, len(h.counts))
	for i := range out {
		out[i] = h.Density(i)
	}
	return out
}

// Centers returns every bin midpoint.
func (h *Histogram) Centers() []float64 {
	out := make([]float64, len(h.counts))
	for i := range out {
		out[i] = h.Center(i)
	}
	return out
}
