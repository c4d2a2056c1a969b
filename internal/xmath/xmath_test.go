package xmath

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestBrent(t *testing.T) {
	cases := []struct {
		f        func(float64) float64
		lo, hi   float64
		wantRoot float64
	}{
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
	}
	for i, c := range cases {
		root, err := Brent(c.f, c.lo, c.hi, 1e-13)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !almostEqual(root, c.wantRoot, 1e-9) {
			t.Errorf("case %d: root=%v want %v", i, root, c.wantRoot)
		}
	}
}

func TestMinimizeGolden(t *testing.T) {
	x, fx := MinimizeGolden(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10)
	if !almostEqual(x, 3, 1e-6) || fx > 1e-10 {
		t.Errorf("min at %v (f=%v)", x, fx)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		dx, dy := x[0]-1, x[1]+2
		return dx*dx + 3*dy*dy
	}
	x, fx := NelderMead(f, []float64{10, 10}, NelderMeadOptions{})
	if !almostEqual(x[0], 1, 1e-4) || !almostEqual(x[1], -2, 1e-4) || fx > 1e-7 {
		t.Errorf("min at %v (f=%v)", x, fx)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, fx := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 20000, Tol: 1e-14})
	if fx > 1e-8 {
		t.Errorf("Rosenbrock min at %v (f=%v)", x, fx)
	}
}

func TestKahanSum(t *testing.T) {
	var s KahanSum
	for i := 0; i < 1_000_000; i++ {
		s.Add(0.1)
	}
	if !almostEqual(s.Sum(), 100000, 1e-9) {
		t.Errorf("kahan sum = %v", s.Sum())
	}
	// Catastrophic cancellation case a naive sum gets wrong.
	var s2 KahanSum
	s2.Add(1e16)
	for i := 0; i < 10; i++ {
		s2.Add(1)
	}
	s2.Add(-1e16)
	if s2.Sum() != 10 {
		t.Errorf("cancellation sum = %v, want 10", s2.Sum())
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp broken")
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err != ErrBracket {
		t.Errorf("want ErrBracket, got %v", err)
	}
	// Exact endpoint roots.
	r, err := Brent(func(x float64) float64 { return x }, 0, 1, 1e-12)
	if err != nil || r != 0 {
		t.Errorf("endpoint root: %v, %v", r, err)
	}
}

func TestNelderMeadEmptyAndOneD(t *testing.T) {
	x, fx := NelderMead(func(x []float64) float64 { return 42 }, nil, NelderMeadOptions{})
	if x != nil || fx != 42 {
		t.Errorf("empty dimension: %v %v", x, fx)
	}
	x, _ = NelderMead(func(x []float64) float64 { return (x[0] + 7) * (x[0] + 7) }, []float64{3}, NelderMeadOptions{})
	if math.Abs(x[0]+7) > 1e-3 {
		t.Errorf("1-d min at %v", x)
	}
}

// TestSumSliceAndLinspaceEdge sums a short slice with KahanSum: the
// compensated total of 0.1+0.2+0.3 is 0.6 to within one ulp.
func TestSumSliceAndLinspaceEdge(t *testing.T) {
	var k KahanSum
	for _, x := range []float64{0.1, 0.2, 0.3} {
		k.Add(x)
	}
	if got := k.Sum(); got != 0.6000000000000001 && math.Abs(got-0.6) > 1e-15 {
		t.Errorf("sum of slice = %v", got)
	}
}
