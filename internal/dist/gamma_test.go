package dist

import (
	"math"
	"sort"
	"testing"
)

// TestErlangMarsagliaTsangMoments is the golden-moment test for the O(1)
// gamma sampler: across small and large orders the sample mean, variance and
// third central moment must match the analytic Erlang values. The old
// sum-of-exponentials sampler passed the same bounds, so a regression in the
// rejection method (wrong squeeze, wrong scaling) fails loudly.
func TestErlangMarsagliaTsangMoments(t *testing.T) {
	const n = 200_000
	for _, k := range []int{2, 3, 9, 18, 28, 100} {
		e, err := ErlangByMean(k, 1852)
		if err != nil {
			t.Fatal(err)
		}
		xs := SampleN(e, NewRNG(uint64(1000+k)), n)
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= n
		var m2, m3 float64
		for _, x := range xs {
			d := x - mean
			m2 += d * d
			m3 += d * d * d
		}
		m2 /= n
		m3 /= n

		wantMean, wantVar := e.Mean(), e.Var()
		// Gamma(k) skewness is 2/sqrt(k); third central moment 2k/rate^3.
		wantM3 := 2 * float64(k) / (e.Rate * e.Rate * e.Rate)

		if rel := math.Abs(mean-wantMean) / wantMean; rel > 0.01 {
			t.Errorf("K=%d: mean %v vs %v (rel %v)", k, mean, wantMean, rel)
		}
		if rel := math.Abs(m2-wantVar) / wantVar; rel > 0.03 {
			t.Errorf("K=%d: var %v vs %v (rel %v)", k, m2, wantVar, rel)
		}
		if rel := math.Abs(m3-wantM3) / wantM3; rel > 0.15 {
			t.Errorf("K=%d: m3 %v vs %v (rel %v)", k, m3, wantM3, rel)
		}
	}
}

// TestErlangSamplerMatchesCDF checks the sampler against the closed-form
// Erlang CDF at fixed probe points: the empirical CDF must agree within a
// few standard errors (binomial se = sqrt(p(1-p)/n)).
func TestErlangSamplerMatchesCDF(t *testing.T) {
	const n = 100_000
	for _, k := range []int{2, 9, 20} {
		e, err := ErlangByMean(k, 100)
		if err != nil {
			t.Fatal(err)
		}
		xs := SampleN(e, NewRNG(uint64(2000+k)), n)
		sort.Float64s(xs)
		for _, x := range []float64{50, 80, 100, 120, 150, 200} {
			p := e.CDF(x)
			emp := float64(sort.SearchFloat64s(xs, x)) / n
			tol := 5 * math.Sqrt(p*(1-p)/n)
			if math.Abs(emp-p) > tol {
				t.Errorf("K=%d x=%v: empirical CDF %v, closed form %v (tol %v)", k, x, emp, p, tol)
			}
		}
	}
}

// TestErlangSampleStrictlyPositive: a gamma draw is positive by construction;
// the rejection loop must never leak a nonpositive or non-finite value.
func TestErlangSampleStrictlyPositive(t *testing.T) {
	e, err := ErlangByMean(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(7)
	for i := 0; i < 50_000; i++ {
		x := e.Sample(r)
		if !(x > 0) || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("draw %d = %v", i, x)
		}
	}
}
