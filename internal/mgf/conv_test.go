package mgf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"
)

// newSum is NewSum for factors a test knows are well shaped: U and W, and
// the eq. (34) ladder of order k at rate beta as P.
func newSum(t testing.TB, u, w Mix, k int, beta float64) Sum {
	t.Helper()
	s, err := NewSum(u, w, k, beta)
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

// shiftedLadder returns the eq. (34) ladder of order k at rate with every
// Erlang order raised by shift: (1/(k-1)) sum_{m=1..k-1} Erlang(m+shift, rate).
func shiftedLadder(k, shift int, rate float64) Mix {
	coef := make([]complex128, k-1+shift)
	for m := 1; m < k; m++ {
		coef[m-1+shift] = complex(1/float64(k-1), 0)
	}
	return Mix{Terms: []Term{{Pole: complex(rate, 0), Coef: coef}}}
}

// TestPositionMixValidByConstruction validates the packet-position law of
// eq. (34) for K 2-200 at several burst rates and scans its tail
// (tailScan). NewSum does not validate it at serve time: one Erlang ladder
// at beta > 0 with K-1 weights 1/(K-1) is a probability law for every K
// and rate. The mean is half the burst, K/(2 beta).
func TestPositionMixValidByConstruction(t *testing.T) {
	for k := 2; k <= 200; k++ {
		for _, beta := range []float64{1e-3, 0.3, 450, 1e6} {
			p := positionLaw(k, beta)
			if err := p.Validate(); err != nil {
				t.Errorf("K=%d beta=%g: %v", k, beta, err)
			}
			if err := tailScan(p); err != nil {
				t.Errorf("K=%d beta=%g: %v", k, beta, err)
			}
			if got, want := p.Mean(), float64(k)/(2*beta); math.Abs(got-want) > 1e-12*want {
				t.Errorf("K=%d beta=%g: mean %v, want %v", k, beta, got, want)
			}
			if _, _, got := newSum(t, NewAtom(1), NewAtom(1), k, beta).Factors(); !reflect.DeepEqual(got, p) {
				t.Errorf("K=%d beta=%g: NewSum's P %v is not positionLaw's", k, beta, got)
			}
		}
	}
}

func TestSumMatchesMulWhenWellConditioned(t *testing.T) {
	u := NewExponential(0.3, 5)
	u.Atom = 0.7
	w := NewPoles(0.4, []complex128{complex(2, 1.5), complex(2, -1.5), 0.8},
		[]complex128{complex(0.2, -0.1), complex(0.2, 0.1), 0.2})
	mul := mulAll(u, w, positionLaw(5, 1.2))
	sum := newSum(t, u, w, 5, 1.2)
	checkLaw(t, mul)
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
// the closed-form hypoexponential law: the ladder of order K = 2 is one
// Exp(beta).
func TestSumNestsAsLaw(t *testing.T) {
	a, b, c := 3.0, 5.0, 7.0
	s := newSum(t, NewExponential(1, a), NewExponential(1, b), 2, c)
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
	if got := s.Tail(0); got != 1 {
		t.Errorf("tail at 0 of continuous sum = %v", got)
	}
	if got, want := s.Mean(), 1/a+1/b+1/c; math.Abs(got-want) > 1e-15 {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestSumSurvivesIllConditionedPoles(t *testing.T) {
	// A W pole 1e-5 relative from P's ladder and a U pole 1e-7 from the W
	// pole: mul's Taylor amplification is ~(1e5)^orders. Every rate lies in
	// [rate, fast], so given P's order m the sum of the 2+m exponentials is
	// stochastically between Erlang(m+2, fast) and Erlang(m+2, rate), and
	// the Sum between the ladders with every order raised by 2.
	rate := 100.0
	fast := rate * (1 + 1e-5 + 1e-7)
	u := NewExponential(1, fast)
	w := NewExponential(1, rate*(1+1e-5))
	for _, k := range []int{2, 6, 30} {
		if estimateMulError(w, positionLaw(k, rate)) < 1e-9 {
			t.Fatalf("K=%d: pole-merge tolerance absorbed the near-collision", k)
		}
		sum := newSum(t, u, w, k, rate)
		lo, hi := shiftedLadder(k, 2, fast), shiftedLadder(k, 2, rate)
		for _, x := range []float64{0.01, 0.05, 0.1, 0.2, 1, 5} {
			got := sum.Tail(x)
			if !(got >= lo.Tail(x)*(1-1e-13) && got <= hi.Tail(x)*(1+1e-13)) {
				t.Errorf("K=%d tail(%v) = %v outside the shifted-ladder sandwich [%v, %v]",
					k, x, got, lo.Tail(x), hi.Tail(x))
			}
		}
	}
}

func TestNewSumRejectsOtherShapes(t *testing.T) {
	exp := NewExponential(1, 2)
	pair := NewConjugatePoles(0.5, []complex128{complex(2, 1)}, []complex128{0.25})
	if _, err := NewSum(exp, pair, 4, 4); err != nil {
		t.Errorf("paired W: %v", err)
	}
	for name, f := range map[string]struct {
		u, w Mix
		k    int
		beta float64
	}{
		"paired U":      {pair, exp, 4, 4},
		"Erlang U":      {newErlang(1, 2, 2), exp, 4, 4},
		"Erlang W":      {exp, newErlang(1, 2, 2), 4, 4},
		"negative pole": {NewExponential(1, -2), exp, 4, 4},
		"NaN W weight":  {exp, NewExponential(math.NaN(), 2), 4, 4},
		"K=1 ladder":    {exp, exp, 1, 4},
		"K=0 ladder":    {exp, exp, 0, 4},
		"zero rate":     {exp, exp, 4, 0},
		"negative rate": {exp, exp, 4, -4},
		"NaN rate":      {exp, exp, 4, math.NaN()},
		"infinite rate": {exp, exp, 4, math.Inf(1)},
	} {
		if _, err := NewSum(f.u, f.w, f.k, f.beta); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err %v, want ErrInvalid", name, err)
		}
	}
	for _, k := range []int{2, 3, 9, 200} {
		if _, err := NewSum(NewAtom(1), NewAtom(1), k, 4); err != nil {
			t.Errorf("atom U and W, K=%d: %v", k, err)
		}
	}
}

func TestSumQuantileErrorPaths(t *testing.T) {
	s := newSum(t, NewAtom(1), NewAtom(1), 2, 2)
	for _, p := range []float64{0, 1, math.NaN()} {
		if _, err := s.Quantile(p); err == nil {
			t.Errorf("accepted p=%v", p)
		}
	}
	// U and W at zero and the K = 2 ladder: the law of Exp(2).
	q, err := s.Quantile(0.5)
	if want := math.Ln2 / 2; err != nil || math.Abs(q-want) > 1e-9*want {
		t.Errorf("median of Exp(2): %v, %v; want %v", q, err, want)
	}
	// A law of zero mass has its quantile at 0.
	if q, err := newSum(t, NewAtom(0), NewAtom(1), 2, 2).Quantile(0.5); err != nil || q != 0 {
		t.Errorf("quantile of a zero-mass law: %v, %v", q, err)
	}
}

// TestQuantileWorkspaceStartsCold pins that every inversion starts cold:
// Quantile keeps no workspace or other state between calls, so inverting
// other laws first never changes the bits a law's inversion returns.
func TestQuantileWorkspaceStartsCold(t *testing.T) {
	s := newSum(t, NewExponential(1, 0.4), NewExponential(1, 0.9), 9, 0.3)
	want, err := s.Quantile(0.99999)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{0.12, 0.25, 0.6} {
		other := newSum(t, NewExponential(1, rate), NewExponential(1, 0.9), 9, 0.3)
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
// upstream exponential, k W poles crowding beta, stored like the D/E_K/1
// law as its real poles and one member per conjugate pair, and a uniform
// ladder.
func sumTailLaw(t testing.TB, k int) Sum {
	beta := float64(k) / 0.02
	u := NewExponential(0.4, 30)
	u.Atom = 0.6
	poles, weights := make([]complex128, k/2+1), make([]complex128, k/2+1)
	mass := 0.0
	for j := range poles {
		zeta := 0.3 * cmplx.Exp(complex(0, 2*math.Pi*float64(j)/float64(k)))
		c := 0.5 / float64(k)
		switch {
		case j == 0:
			c *= 2
		case 2*j == k: // the real pole at zeta = -0.3 of an even k
			zeta = complex(real(zeta), 0)
		default: // a conjugate pair
			mass += c
		}
		poles[j], weights[j] = complex(beta, 0)*(1-zeta), complex(c, 0)
		mass += c
	}
	return newSum(t, u, NewConjugatePoles(1-mass, poles, weights), k, beta)
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
	for _, k := range []int{9, 30, 100} {
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
