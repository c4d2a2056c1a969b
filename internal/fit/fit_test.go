package fit

import (
	"math"
	"testing"

	"fpsping/internal/dist"
	"fpsping/internal/stats"
)

func TestGumbelByMoments(t *testing.T) {
	g, err := GumbelByMoments(127, 0.74*127)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mean()-127) > 1e-9 {
		t.Errorf("mean = %v", g.Mean())
	}
	if math.Abs(dist.StdDev(g)-0.74*127) > 1e-9 {
		t.Errorf("sd = %v", dist.StdDev(g))
	}
	if _, err := GumbelByMoments(1, 0); err == nil {
		t.Error("accepted zero stddev")
	}
}

func TestGumbelMLERecoversTruth(t *testing.T) {
	// Färber's client packet-size fit: Ext(80, 5.7).
	truth, _ := dist.NewGumbel(80, 5.7)
	r := dist.NewRNG(42)
	xs := dist.SampleN(truth, r, 50_000)
	got, err := GumbelMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A-80) > 0.2 {
		t.Errorf("a = %v, want ~80", got.A)
	}
	if math.Abs(got.B-5.7) > 0.2 {
		t.Errorf("b = %v, want ~5.7", got.B)
	}
}

func TestGumbelLeastSquaresRecoversTruth(t *testing.T) {
	// The Table-1 server packet-size fit: Ext(120, 36) by least squares on
	// the histogram density, exactly Färber's method.
	truth, _ := dist.NewGumbel(120, 36)
	r := dist.NewRNG(43)
	xs := dist.SampleN(truth, r, 100_000)
	h, err := stats.HistogramFromData(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GumbelLeastSquares(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A-120) > 3 {
		t.Errorf("a = %v, want ~120", got.A)
	}
	if math.Abs(got.B-36) > 3 {
		t.Errorf("b = %v, want ~36", got.B)
	}
}

func TestLogNormalMLE(t *testing.T) {
	truth, _ := dist.NewLogNormal(4.2, 0.3)
	r := dist.NewRNG(44)
	xs := dist.SampleN(truth, r, 50_000)
	got, err := LogNormalMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-4.2) > 0.01 || math.Abs(got.Sigma-0.3) > 0.01 {
		t.Errorf("got LogN(%v,%v)", got.Mu, got.Sigma)
	}
	if _, err := LogNormalMLE([]float64{1, -2, 3}); err == nil {
		t.Error("accepted negative data")
	}
}

func TestNormalAndExponentialMLE(t *testing.T) {
	r := dist.NewRNG(45)
	nTruth, _ := dist.NewNormal(30, 0.65*30)
	xs := dist.SampleN(nTruth, r, 50_000)
	n, err := NormalMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Mu-30) > 0.3 || math.Abs(n.Sigma-19.5) > 0.3 {
		t.Errorf("normal fit N(%v,%v)", n.Mu, n.Sigma)
	}
}

func TestErlangOrderByCoVPaperValue(t *testing.T) {
	// §2.3.2: CoV 0.19 -> K = 28.
	k, err := ErlangOrderByCoV(0.19)
	if err != nil {
		t.Fatal(err)
	}
	if k != 28 {
		t.Errorf("K = %d, paper derives 28", k)
	}
	// And the three figure-1 candidates map back to plausible CoVs.
	for _, c := range []struct {
		k   int
		cov float64
	}{{15, 0.258}, {20, 0.224}, {25, 0.2}} {
		got, _ := ErlangOrderByCoV(c.cov)
		if got != c.k {
			t.Errorf("cov %v -> K=%d, want %d", c.cov, got, c.k)
		}
	}
	if _, err := ErlangOrderByCoV(0); err == nil {
		t.Error("accepted cov=0")
	}
}

func TestErlangTailFitRecoversOrder(t *testing.T) {
	// Data genuinely Erlang(18, ...): the tail fit should land close to 18
	// while the CoV method should as well (consistency case).
	truth, _ := dist.ErlangByMean(18, 1852)
	r := dist.NewRNG(46)
	xs := dist.SampleN(truth, r, 40_000)
	best, err := ErlangOrderByTail(xs, 40, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if best.K < 14 || best.K > 22 {
		t.Errorf("tail-fit K = %d, want ~18", best.K)
	}
}

func TestErlangTailVsCoVDisagreeOnMixedData(t *testing.T) {
	// The paper's central fitting observation: when the body is narrow but
	// the tail is heavier than Erlang-of-that-CoV, the CoV method overshoots
	// K while the tail method picks a smaller K. Build such data: mostly a
	// tight Erlang(40) body with a 3% heavier Erlang(6) tail component.
	body, _ := dist.ErlangByMean(40, 1800)
	tail, _ := dist.ErlangByMean(6, 2600)
	mix, err := dist.NewMixture([]dist.Distribution{body, tail}, []float64{0.97, 0.03})
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(47)
	xs := dist.SampleN(mix, r, 60_000)

	s := stats.Describe(xs)
	kCov, err := ErlangOrderByCoV(s.CoV())
	if err != nil {
		t.Fatal(err)
	}
	best, err := ErlangOrderByTail(xs, 50, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if best.K >= kCov {
		t.Errorf("expected tail fit K (%d) < CoV fit K (%d) on heavy-tailed data", best.K, kCov)
	}
}

func TestErlangTailFitScoresOrdered(t *testing.T) {
	truth, _ := dist.ErlangByMean(20, 1852)
	r := dist.NewRNG(48)
	xs := dist.SampleN(truth, r, 30_000)
	scores, best, err := ErlangTailFit(xs, []int{2, 20, 60}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores len %d", len(scores))
	}
	if best.K != 20 {
		t.Errorf("best K = %d, want 20 (scores %+v)", best.K, scores)
	}
	if !(scores[1].Score < scores[0].Score && scores[1].Score < scores[2].Score) {
		t.Errorf("true order should score best: %+v", scores)
	}
}

func TestRankByKSPrefersTrueFamily(t *testing.T) {
	truth, _ := dist.NewGumbel(55, 6)
	r := dist.NewRNG(49)
	xs := dist.SampleN(truth, r, 8000)

	gum, err := GumbelMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := NormalMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	logn, err := LogNormalMLE(xs)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RankByKS(xs, map[string]dist.Distribution{
		"extreme":   gum,
		"normal":    norm,
		"lognormal": logn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Name != "extreme" {
		t.Errorf("best family = %s (D=%v), want extreme", ranked[0].Name, ranked[0].KS.D)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].KS.D < ranked[i-1].KS.D {
			t.Error("ranking not sorted by D")
		}
	}
}

func TestFitErrorPaths(t *testing.T) {
	if _, err := GumbelMLE(nil); err == nil {
		t.Error("GumbelMLE accepted empty")
	}
	if _, err := NormalMLE([]float64{1}); err == nil {
		t.Error("NormalMLE accepted single sample")
	}
	if _, _, err := ErlangTailFit(nil, []int{1}, 0); err == nil {
		t.Error("ErlangTailFit accepted empty data")
	}
	if _, err := ErlangOrderByTail([]float64{1, 2}, 0, 0); err == nil {
		t.Error("ErlangOrderByTail accepted maxK=0")
	}
	if _, err := RankByKS(nil, nil); err == nil {
		t.Error("RankByKS accepted empty")
	}
}

func BenchmarkGumbelMLE(b *testing.B) {
	truth, _ := dist.NewGumbel(120, 36)
	xs := dist.SampleN(truth, dist.NewRNG(1), 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GumbelMLE(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErlangOrderByTail(b *testing.B) {
	truth, _ := dist.ErlangByMean(20, 1852)
	xs := dist.SampleN(truth, dist.NewRNG(2), 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ErlangOrderByTail(xs, 30, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
