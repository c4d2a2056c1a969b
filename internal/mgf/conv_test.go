package mgf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

// newSum is NewSum for factors a test knows are well shaped.
func newSum(t testing.TB, u, w, p Mix) Sum {
	t.Helper()
	s, err := NewSum(u, w, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// estimateMulError is a rough bound on the absolute coefficient error
// mul(a, b) commits in float64, driven by near-coincident cross poles: the
// Taylor coefficients it expands through grow like (|p|/|p-q|)^order.
func estimateMulError(a, b Mix) float64 {
	const eps = 2.220446049250313e-16
	amp := 0.0
	for _, ta := range a.Terms {
		for _, tb := range b.Terms {
			if samePole(ta.Pole, tb.Pole) {
				continue // exact merge, no amplification
			}
			gap := cmplx.Abs(ta.Pole - tb.Pole)
			ra := cmplx.Abs(ta.Pole) / gap
			rb := cmplx.Abs(tb.Pole) / gap
			var ma, mb float64
			for _, c := range ta.Coef {
				ma += cmplx.Abs(c)
			}
			for _, c := range tb.Coef {
				mb += cmplx.Abs(c)
			}
			ordA, ordB := float64(len(ta.Coef)), float64(len(tb.Coef))
			amp += ma * mb * math.Pow(math.Max(rb, 1), ordA+ordB)
			amp += ma * mb * math.Pow(math.Max(ra, 1), ordA+ordB)
		}
	}
	return eps * amp
}

// ladderMix returns an atom plus weights[m-1]*Erlang(m, rate), m = 1..len.
func ladderMix(atom, rate float64, weights ...float64) Mix {
	coef := make([]complex128, len(weights))
	for i, w := range weights {
		coef[i] = complex(w, 0)
	}
	m := Mix{Atom: atom}
	m.AddTerm(complex(rate, 0), coef)
	return m
}

func TestSumMatchesMulWhenWellConditioned(t *testing.T) {
	u := NewExponential(0.3, 5)
	u.Atom = 0.7
	var w Mix
	w.Atom = 0.4
	w.AddTerm(complex(2, 1.5), []complex128{complex(0.2, -0.1)})
	w.AddTerm(complex(2, -1.5), []complex128{complex(0.2, 0.1)})
	w.AddTerm(complex(0.8, 0), []complex128{0.2})
	p := ladderMix(0, 1.2, 0.25, 0.25, 0.25, 0.25)
	mul := mulAll(u, w, p)
	sum := newSum(t, u, w, p)
	if err := mul.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.TotalMass()-1) > 1e-12 {
		t.Fatalf("sum mass = %v", sum.TotalMass())
	}
	for _, x := range []float64{0, 0.1, 0.5, 1, 3, 8, 15, 40} {
		got := sum.Tail(x)
		want := mul.Tail(x)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("tail(%v): sum %v vs mul %v", x, got, want)
		}
	}
	if math.Abs(sum.Mean()-mul.Mean()) > 1e-12 {
		t.Errorf("means differ: %v vs %v", sum.Mean(), mul.Mean())
	}
	q1, err := sum.Quantile(0.99999)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := mul.Quantile(0.99999)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q1-q2) > 1e-8*(1+q2) {
		t.Errorf("quantiles differ: %v vs %v", q1, q2)
	}
}

// TestSumNestsAsLaw pins U, W and P as three plain exponentials against
// the closed-form hypoexponential law.
func TestSumNestsAsLaw(t *testing.T) {
	a, b, c := 3.0, 5.0, 7.0
	s := newSum(t, NewExponential(1, a), NewExponential(1, b), newErlang(1, 1, c))
	direct := mulAll(NewExponential(1, a), NewExponential(1, b), NewExponential(1, c))
	for _, x := range []float64{0.1, 0.5, 1.5, 6} {
		// P(Exp(a)+Exp(b)+Exp(c) > x) for distinct rates.
		want := b*c/((b-a)*(c-a))*math.Exp(-a*x) +
			a*c/((a-b)*(c-b))*math.Exp(-b*x) +
			a*b/((a-c)*(b-c))*math.Exp(-c*x)
		if got := s.Tail(x); math.Abs(got-want) > 1e-14*want {
			t.Errorf("tail(%v): %v vs %v", x, got, want)
		}
		if got := direct.Tail(x); math.Abs(got-want) > 1e-12*want {
			t.Errorf("mul tail(%v): %v vs %v", x, got, want)
		}
	}
	if got := s.Atom(); got != 0 {
		t.Errorf("atom of continuous sum = %v", got)
	}
	if got, want := s.Mean(), 1/a+1/b+1/c; math.Abs(got-want) > 1e-15 {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestSumSurvivesIllConditionedPoles(t *testing.T) {
	// A W pole 1e-5 relative from P's ladder and a U pole 1e-7 from the W
	// pole: mul's Taylor amplification is ~(1e5)^orders. Every rate lies in
	// [rate, fast], so the sum of the 2+5 exponentials is stochastically
	// between Erlang(7, fast) and Erlang(7, rate).
	rate := 100.0
	fast := rate * (1 + 1e-5 + 1e-7)
	u := NewExponential(1, fast)
	w := NewExponential(1, rate*(1+1e-5))
	p := newErlang(1, 5, rate)
	if estimateMulError(w, p) < 1e-9 {
		t.Fatal("pole-merge tolerance absorbed the near-collision")
	}
	sum := newSum(t, u, w, p)
	for _, x := range []float64{0.01, 0.05, 0.1, 0.2, 1, 5} {
		got := sum.Tail(x)
		lo, hi := newErlang(1, 7, fast).Tail(x), newErlang(1, 7, rate).Tail(x)
		if !(got >= lo*(1-1e-13) && got <= hi*(1+1e-13)) {
			t.Errorf("tail(%v) = %v outside the Erlang-7 sandwich [%v, %v]", x, got, lo, hi)
		}
	}
}

func TestNewSumRejectsOtherShapes(t *testing.T) {
	exp := NewExponential(1, 2)
	p := newErlang(1, 3, 4)
	var complexP Mix
	complexP.AddTerm(complex(4, 1), []complex128{1})
	for name, f := range map[string][3]Mix{
		"Erlang U":      {newErlang(1, 2, 2), exp, p},
		"Erlang W":      {exp, newErlang(1, 2, 2), p},
		"two P terms":   {exp, exp, mulAll(NewExponential(1, 3), NewExponential(1, 5))},
		"atom P":        {exp, exp, NewAtom(1)},
		"complex P":     {exp, exp, complexP},
		"negative pole": {NewExponential(1, -2), exp, p},
	} {
		if _, err := NewSum(f[0], f[1], f[2]); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err %v, want ErrInvalid", name, err)
		}
	}
	if _, err := NewSum(NewAtom(1), NewAtom(1), p); err != nil {
		t.Errorf("atom U and W: %v", err)
	}
}

func TestSumQuantileErrorPaths(t *testing.T) {
	s := newSum(t, NewAtom(1), NewAtom(1), ladderMix(1, 2, 0))
	if _, err := s.Quantile(0); err == nil {
		t.Error("accepted p=0")
	}
	q, err := s.Quantile(0.5)
	if err != nil || q != 0 {
		t.Errorf("quantile of delta at 0: %v, %v", q, err)
	}
}

// TestQuantileWorkspaceStartsCold pins that every inversion starts cold:
// Quantile keeps no workspace or other state between calls, so inverting
// other laws first never changes the bits a law's inversion returns.
func TestQuantileWorkspaceStartsCold(t *testing.T) {
	s := newSum(t, NewExponential(1, 0.4), NewExponential(1, 0.9), newErlang(1, 8, 0.3))
	want, err := s.Quantile(0.99999)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{0.12, 0.25, 0.6} {
		other := newSum(t, NewExponential(1, rate), NewExponential(1, 0.9), newErlang(1, 8, 0.3))
		if _, err := other.Quantile(0.99); err != nil {
			t.Fatal(err)
		}
		if _, err := newErlang(1, 4, rate).Quantile(0.99); err != nil {
			t.Fatal(err)
		}
		got, err := s.Quantile(0.99999)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("after law %d: answer %v != first answer %v", i, got, want)
		}
	}
}

// expTail is the tail and density of Exp(1).
func expTail(x float64) (float64, float64) { return math.Exp(-x), math.Exp(-x) }

// TestInvertTailRejectsNaN pins that a non-finite tail value is an error,
// not a bracket end: a NaN compares as neither above nor under the target.
// From a start below the NaN region the first Newton step lands in it; from
// a start inside it the first pass does.
func TestInvertTailRejectsNaN(t *testing.T) {
	tail := func(x float64) (float64, float64) {
		if x > 2 {
			return math.NaN(), math.NaN()
		}
		return expTail(x)
	}
	for _, start := range []float64{1, 8} {
		if x, err := invertTail(tail, start, 0.99999, 1e-10); !errors.Is(err, ErrInvalid) {
			t.Errorf("start %v: got %v, %v; want ErrInvalid", start, x, err)
		}
	}
	// The same tail, finite everywhere, inverts to -ln(1e-5).
	x, err := invertTail(expTail, 8, 0.99999, 1e-10)
	if err != nil || math.Abs(x-11.512925464970229) > 1e-8 {
		t.Errorf("finite tail: %v, %v", x, err)
	}
}

// TestInvertTailCapsPasses pins maxTailPasses: a tail that never reaches
// the target is an ErrInvalid after exactly maxTailPasses passes.
func TestInvertTailCapsPasses(t *testing.T) {
	passes := 0
	flat := func(x float64) (float64, float64) {
		if x > 0 {
			passes++
		}
		return 0.5, 0
	}
	if x, err := invertTail(flat, 1, 0.99, 1e-10); !errors.Is(err, ErrInvalid) {
		t.Errorf("flat tail: got %v, %v; want ErrInvalid", x, err)
	}
	if passes != maxTailPasses {
		t.Errorf("flat tail: %d passes, want the cap %d", passes, maxTailPasses)
	}
}

// sumTailLaw is a Sum shaped like an eq. (35) law at Erlang order k: an
// upstream exponential, k W poles crowding beta and a uniform ladder.
func sumTailLaw(t testing.TB, k int) Sum {
	beta := float64(k) / 0.02
	u := NewExponential(0.4, 30)
	u.Atom = 0.6
	var w Mix
	mass := 0.0
	for j := 0; j < k; j++ {
		zeta := 0.3 * cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(k)))
		c := 0.5 / float64(k)
		if j == 0 {
			c *= 2
		}
		w.AddTerm(complex(beta, 0)*(1-zeta), []complex128{complex(c, 0)})
		mass += c
	}
	w.Atom = 1 - mass
	weights := make([]float64, k-1)
	for i := range weights {
		weights[i] = 1 / float64(k-1)
	}
	return newSum(t, u, w, ladderMix(0, beta, weights...))
}

// TestSumTailWSAllocs pins the allocation contract of the compiled
// evaluator's hot loop: a tail evaluation allocates nothing for Erlang
// orders up to 30, its scratch living on the stack.
func TestSumTailWSAllocs(t *testing.T) {
	for _, k := range []int{2, 9, 30} {
		s := sumTailLaw(t, k)
		allocs := testing.AllocsPerRun(50, func() { s.Tail(0.05) })
		if allocs > 0 {
			t.Errorf("K=%d: Sum.Tail allocates %v per run, want 0", k, allocs)
		}
	}
}

// BenchmarkSumTail measures one closed-form tail evaluation near the
// 1e-5 quantile of an eq. (35)-shaped law.
func BenchmarkSumTail(b *testing.B) {
	for _, k := range []int{9, 30} {
		s := sumTailLaw(b, k)
		x, err := s.Quantile(0.99999)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for b.Loop() {
				s.Tail(x)
			}
		})
	}
}
