package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fpsping/internal/dist"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.CoV()-s.StdDev()/5) > 1e-15 {
		t.Errorf("cov = %v", s.CoV())
	}
}

func TestSummaryEmptyIsNaN(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) || !math.IsNaN(s.Min()) {
		t.Error("empty summary should report NaN")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		// Welford's merge squares deltas; inputs near MaxFloat64 overflow
		// by design, so bound the domain rather than the implementation.
		clamp := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if math.Abs(x) < 1e150 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clamp(a), clamp(b)
		var s1, s2, sm Summary
		s1.AddAll(a)
		s2.AddAll(b)
		sm = s1
		sm.Merge(s2)
		var seq Summary
		seq.AddAll(a)
		seq.AddAll(b)
		if sm.Count() != seq.Count() {
			return false
		}
		if sm.Count() == 0 {
			return true
		}
		if math.Abs(sm.Mean()-seq.Mean()) > 1e-9*(1+math.Abs(seq.Mean())) {
			return false
		}
		if sm.Count() > 1 && math.Abs(sm.Variance()-seq.Variance()) > 1e-6*(1+seq.Variance()) {
			return false
		}
		return sm.Min() == seq.Min() && sm.Max() == seq.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 5 {
		t.Errorf("median = %v", q)
	}
	q, _ = Quantile(xs, 1)
	if q != 10 {
		t.Errorf("max quantile = %v", q)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Tail(2.5) != 0.5 {
		t.Errorf("Tail(2.5) = %v", e.Tail(2.5))
	}
	if e.Tail(0) != 1 || e.Tail(4) != 0 {
		t.Error("edges wrong")
	}
	xs, tdf := e.TDFSeries(0, 4, 5)
	if len(xs) != 5 || tdf[0] != 1 || tdf[4] != 0 {
		t.Errorf("TDF series %v %v", xs, tdf)
	}
}

func TestHistogramDensityNormalizes(t *testing.T) {
	r := dist.NewRNG(3)
	e := dist.Erlang{K: 1, Rate: 1} // Exp(1)
	xs := dist.SampleN(e, r, 50_000)
	h, err := HistogramFromData(xs)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < h.Bins(); i++ {
		sum += h.Density(i) * h.BinWidth()
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("density mass = %v", sum)
	}
	if h.Total() != len(xs) {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramEdges(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-1)
	h.Add(10)
	h.Add(9.999999)
	h.Add(0)
	if h.Total() != 4 {
		t.Errorf("total = %d, want 4 with the two out-of-range samples", h.Total())
	}
	if h.Count(9) != 1 || h.Count(0) != 1 {
		t.Errorf("edge bins: %d %d", h.Count(9), h.Count(0))
	}
	if h.Center(0) != 0.5 {
		t.Errorf("center = %v", h.Center(0))
	}
}

func TestPQuantileConvergesOnUniform(t *testing.T) {
	r := dist.NewRNG(11)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q, err := NewPQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200_000; i++ {
			q.Add(r.Float64())
		}
		if math.Abs(q.Value()-p) > 0.01 {
			t.Errorf("p=%v estimate=%v", p, q.Value())
		}
	}
}

func TestPQuantileSmallSamples(t *testing.T) {
	q, _ := NewPQuantile(0.5)
	q.Add(3)
	q.Add(1)
	q.Add(2)
	if v := q.Value(); v != 2 {
		t.Errorf("small-sample median = %v", v)
	}
	if _, err := NewPQuantile(0); err == nil {
		t.Error("accepted p=0")
	}
}

func TestTopKExactQuantile(t *testing.T) {
	// Feed a permutation of 1..n and ask for deep quantiles.
	const n = 10_000
	r := dist.NewRNG(5)
	perm := r.Perm(n)
	tk, err := NewTopK(200)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]float64, n)
	for i, v := range perm {
		x := float64(v + 1)
		all[i] = x
		tk.Add(x)
	}
	sort.Float64s(all)
	for _, p := range []float64{0.99, 0.999, 0.9999} {
		got, err := tk.Quantile(p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		want := SortedQuantile(all, p)
		if got != want {
			t.Errorf("p=%v: got %v want %v", p, got, want)
		}
	}
	if _, err := tk.Quantile(0.5); err == nil {
		t.Error("median from top-200 of 10000 should fail")
	}
	max, err := tk.Quantile(1)
	if err != nil || max != n {
		t.Errorf("largest = %v, %v", max, err)
	}
}

func TestTopKPropertyMatchesSort(t *testing.T) {
	f := func(raw []float64, ki uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		k := 1 + int(ki%16)
		tk, _ := NewTopK(k)
		for _, v := range raw {
			tk.Add(v)
		}
		s := append([]float64(nil), raw...)
		sort.Float64s(s)
		// The max must always agree.
		max, err := tk.Quantile(1)
		return err == nil && max == s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovSmirnovAcceptsTrueModel(t *testing.T) {
	r := dist.NewRNG(21)
	g, _ := dist.NewGumbel(55, 6)
	xs := dist.SampleN(g, r, 5000)
	res, err := KolmogorovSmirnov(xs, g.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 {
		t.Errorf("true model rejected: D=%v P=%v", res.D, res.P)
	}
	// And rejects a clearly wrong model.
	e := dist.Erlang{K: 1, Rate: 1.0 / 60} // Exp(1/60)
	res2, _ := KolmogorovSmirnov(xs, e.CDF)
	if res2.P > 1e-6 {
		t.Errorf("wrong model accepted: D=%v P=%v", res2.D, res2.P)
	}
	if res2.D <= res.D {
		t.Error("wrong model should have larger distance")
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func BenchmarkTopKAdd(b *testing.B) {
	tk, _ := NewTopK(100)
	r := dist.NewRNG(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(xs[i&4095])
	}
}

func TestTopKMergeExact(t *testing.T) {
	r := dist.NewRNG(77)
	a, _ := NewTopK(300)
	b, _ := NewTopK(300)
	var all []float64
	for i := 0; i < 5000; i++ {
		x := r.NormFloat64()
		all = append(all, x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.n != 5000 {
		t.Fatalf("merged count %d", a.n)
	}
	sort.Float64s(all)
	for _, p := range []float64{0.99, 0.999} {
		got, err := a.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := SortedQuantile(all, p)
		if got != want {
			t.Errorf("p=%v: merged %v want %v", p, got, want)
		}
	}
}
