package mgf_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
)

// The wait laws W are built by construction: one pole per real root and
// conjugate pair, no pole merged (mgf.NewConjugatePoles). These tests pin
// the law each W stands for, Mix.Expanded, against the general term builder
// the product uses, AddTerm, which merges poles within 1e-9 relative.

// waitLoads is the load grid of the wait-law tests, from a vanishing load to
// near saturation.
var waitLoads = []float64{1e-6, 1e-4, 0.01, 0.05, 0.055, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98}

// waitPair is a queue's wait law W and the AddTerm reference over the same
// atom, poles and weights, each conjugate pair's two members added one by
// one: each a validated law or an error.
type waitPair struct {
	w, ref      mgf.Mix
	err, refErr error
	poles       int // the number of poles W stands for
}

// waitSolution is a solved wait-law root set of either queue.
type waitSolution interface {
	WaitMix() (mgf.Mix, error)
	WaitPoles() (atom float64, poles, weights []complex128)
}

// solveWait solves the D/E_K/1 (mek1 false) or M/E_K/1 queue at Erlang
// order k and load rho.
func solveWait(k int, rho float64, mek1 bool) (waitSolution, error) {
	if mek1 {
		q, err := queueing.NewMEK1(rho, k, float64(k))
		if err != nil {
			return nil, err
		}
		return q.Solve()
	}
	q, err := queueing.NewDEK1(k, rho*0.05, 0.05)
	if err != nil {
		return nil, err
	}
	return q.Solve()
}

// waitLaw returns the wait-law pair of the D/E_K/1 (mek1 false) or M/E_K/1
// queue at Erlang order k and load rho. An error of the queue or its root
// solve fails both.
func waitLaw(k int, rho float64, mek1 bool) waitPair {
	sol, err := solveWait(k, rho, mek1)
	if err != nil {
		return waitPair{err: err, refErr: err}
	}
	var p waitPair
	p.w, p.err = sol.WaitMix()
	atom, ps, ws := sol.WaitPoles()
	p.ref = mgf.NewAtom(atom)
	for j, pole := range ps {
		p.ref.AddTerm(pole, []complex128{ws[j]})
		p.poles++
		if imag(pole) != 0 {
			p.ref.AddTerm(cmplx.Conj(pole), []complex128{cmplx.Conj(ws[j])})
			p.poles++
		}
	}
	p.refErr = p.ref.Validate()
	return p
}

// TestWaitMixMatchesAddTerm compares every constructed wait law with the
// AddTerm-built reference field for field, or checks that both fail: the
// D/E_K/1 law at K 2-200 over the load grid and the M/E_K/1 law at K 2-200
// over a coarser one. A reference that merged poles must be a rejected law,
// so that not merging changes no answer.
func TestWaitMixMatchesAddTerm(t *testing.T) {
	for _, queue := range []struct {
		name  string
		mek1  bool
		loads []float64
	}{
		{"D/E_K/1", false, waitLoads},
		{"M/E_K/1", true, []float64{0.05, 0.5, 0.98}},
	} {
		laws, rejected, merged := 0, 0, 0
		for k := 2; k <= 200; k++ {
			for _, rho := range queue.loads {
				p := waitLaw(k, rho, queue.mek1)
				name := fmt.Sprintf("%s K=%d rho=%g", queue.name, k, rho)
				laws++
				if len(p.ref.Terms) < p.poles {
					merged++
					if p.err == nil {
						t.Errorf("%s: AddTerm merged %d of %d poles, yet the constructed law is served",
							name, p.poles-len(p.ref.Terms), p.poles)
					}
				}
				switch {
				case (p.err != nil) != (p.refErr != nil):
					t.Errorf("%s: constructed err %v, reference err %v", name, p.err, p.refErr)
				case p.err != nil:
					rejected++
				case !reflect.DeepEqual(p.w.Expanded(), p.ref) || math.Float64bits(p.w.Atom) != math.Float64bits(p.ref.Atom):
					t.Errorf("%s: constructed law %v differs from the reference %v", name, p.w, p.ref)
				}
			}
		}
		t.Logf("%s: %d laws, %d rejected by both, %d references merged poles", queue.name, laws, rejected, merged)
	}
}

// poleGap returns the smallest relative distance |a-b|/max(|a|,|b|) between
// two poles of the law m stands for, or +Inf for fewer than two.
func poleGap(m mgf.Mix) float64 {
	gap := math.Inf(1)
	terms := m.Expanded().Terms
	for i, a := range terms {
		for _, b := range terms[i+1:] {
			gap = min(gap, cmplx.Abs(a.Pole-b.Pole)/math.Max(cmplx.Abs(a.Pole), cmplx.Abs(b.Pole)))
		}
	}
	return gap
}

// FuzzWaitMixPolesDistinct pins two properties of every wait law a queue
// serves: pairwise distinct poles, more than 1e-9 apart, relative, the
// distance under which AddTerm would have merged them; and a tail that
// passes tailScan whenever Validate accepts the law, as served
// (servedWait). K is mapped to 2-200 and rho must lie in (0, 1).
func FuzzWaitMixPolesDistinct(f *testing.F) {
	f.Add(uint8(7), 0.5, false)
	f.Add(uint8(198), 0.95, false)
	f.Add(uint8(150), 0.25, false)
	f.Add(uint8(0), 1e-6, false)
	// K = 156: the poles would crowd within 5e-10 of each other,
	// relative, but the negligible-wait rule makes W the unit atom.
	f.Add(uint8(154), 0.0546875, false)
	f.Add(uint8(7), 0.5, true)
	f.Add(uint8(31), 0.98, true)
	f.Fuzz(func(t *testing.T, kRaw uint8, rho float64, mek1 bool) {
		k := 2 + int(kRaw)%199
		if !(rho > 0 && rho < 1) {
			return
		}
		if p := waitLaw(k, rho, mek1); p.err == nil {
			if gap := poleGap(p.w); !(gap > 1e-9) {
				t.Errorf("K=%d rho=%g M/E_K/1=%v: served wait law has poles %g apart, relative", k, rho, mek1, gap)
			}
		}
		if w, err := servedWait(k, rho, mek1); err == nil {
			if err := mgf.TailScan(w); err != nil {
				t.Errorf("K=%d rho=%g M/E_K/1=%v: Validate accepts W, but %v", k, rho, mek1, err)
			}
		}
	})
}

// foldLevels are the quantile levels the fold tests compare at.
var foldLevels = []float64{0.9, 0.99, 0.9999, 0.999999}

// foldTol bounds the distance between a folded wait law and the same
// roots stored one term per pole, relative to the sum of the magnitudes of
// the terms a quantity adds up: the fold only regroups and rounds that sum.
// Where the terms cancel (a W law with little mass beyond its atom, at low
// load or large K) the quantity itself is rounding noise in both forms, so
// its own size is no scale to judge them by.
const foldTol = 1e-13

// termScales returns the term-magnitude scales of m's mass and mean, and of
// its tail and density at x: |atom| + sum |c_j|, sum |c_j/p_j|,
// sum |c_j| e^{-Re(p_j) x} and sum |c_j p_j| e^{-Re(p_j) x}, over every
// member of m's simple poles.
func termScales(m mgf.Mix, x float64) (mass, mean, tail, density float64) {
	mass = math.Abs(m.Atom)
	for _, t := range m.Expanded().Terms {
		c, p := cmplx.Abs(t.Coef[0]), cmplx.Abs(t.Pole)
		e := c * math.Exp(-real(t.Pole)*x)
		mass, mean, tail, density = mass+c, mean+c/p, tail+e, density+e*p
	}
	return mass, mean, tail, density
}

// checkFold compares the D/E_K/1 (mek1 false) or M/E_K/1 wait law at
// Erlang order k and load rho, stored one term per conjugate pair, with its
// expansion (Mix.Expanded), and checks that its imaginary mass is exactly
// 0:
//   - the total mass, the mean, and the tail and density at half of and at
//     each quantile within foldTol of their term-magnitude scales;
//   - each quantile within Mix.Quantile's own tolerance, 1e-12·(1+x); for
//     M/E_K/1 plus the shift foldTol of the tail's term scale makes at the
//     density, which must be positive there;
//   - the tail of a Sum over each at two of the folded Sum's quantiles
//     within foldTol relative: a Sum tail adds the factors' positive
//     masses, no noise.
//
// It returns the largest share of its bound a distance used; a queue whose
// solve or law is rejected is skipped.
func checkFold(t *testing.T, k int, rho float64, mek1 bool) float64 {
	t.Helper()
	sol, err := solveWait(k, rho, mek1)
	if err != nil {
		return 0
	}
	w, err := sol.WaitMix()
	if err != nil {
		return 0
	}
	beta := float64(k) / (rho * 0.05) // the D/E_K/1 burst rate, K over the mean burst
	if mek1 {
		beta = float64(k)
	}
	name := fmt.Sprintf("K=%d rho=%g M/E_K/1=%v", k, rho, mek1)
	e := w.Expanded()
	worst := 0.0
	near := func(what string, got, want, scale, tol float64) {
		d := math.Abs(got - want)
		if !(d <= tol*scale) {
			t.Errorf("%s: %s folded %.17g, expanded %.17g (%.3g of scale %.3g)", name, what, got, want, d/scale, scale)
		}
		if d > 0 {
			worst = max(worst, d/(tol*scale))
		}
	}
	if m := w.Eval(0); imag(m) != 0 {
		t.Errorf("%s: imaginary mass %v", name, imag(m))
	}
	massScale, meanScale, _, _ := termScales(w, 0)
	near("total mass", w.TotalMass(), e.TotalMass(), massScale, foldTol)
	near("mean", w.Mean(), e.Mean(), meanScale, foldTol)
	fold, exp := mgf.MixTailDensity(w), mgf.MixTailDensity(e)
	for _, p := range foldLevels {
		want, werr := e.Quantile(p)
		got, err := w.Quantile(p)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s p=%g: folded err %v, expanded err %v", name, p, err, werr)
		}
		if err != nil {
			continue
		}
		scale := 1 + want
		if mek1 {
			// The two tails differ by up to foldTol of their term scale,
			// which moves the crossing by that over the density. It
			// matters where the crossing is rounding noise: an M/E_K/1
			// law at 1-p = rho = P(W>0), whose quantile is 0 in exact
			// arithmetic.
			_, f := exp(want)
			if !(f > 0) {
				t.Errorf("%s p=%g: expanded density %g at the quantile %g", name, p, f, want)
				continue
			}
			_, _, ts, _ := termScales(w, want)
			scale += foldTol * ts / f / 1e-12
		}
		near(fmt.Sprintf("quantile(%g)", p), got, want, scale, 1e-12)
		for _, x := range []float64{want / 2, want} {
			ft, fd := fold(x)
			et, ed := exp(x)
			_, _, ts, ds := termScales(w, x)
			near(fmt.Sprintf("tail(%g)", x), ft, et, ts, foldTol)
			near(fmt.Sprintf("density(%g)", x), fd, ed, ds, foldTol)
		}
	}
	if k < 2 {
		return worst // no position ladder at K = 1 (eq. 33)
	}
	u := mgf.NewExponential(0.3, beta/4)
	u.Atom = 0.7
	sf, err := mgf.NewSum(u, w, k, beta)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	se, err := mgf.NewSum(u, e, k, beta)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, p := range []float64{0.99, 0.999999} {
		x, err := sf.Quantile(p)
		if err != nil {
			t.Fatalf("%s p=%g: %v", name, p, err)
		}
		want := se.Tail(x)
		near(fmt.Sprintf("Sum tail(%g)", x), sf.Tail(x), want, want, foldTol)
	}
	return worst
}

// TestFoldEqualsExpanded pins the conjugate fold over both wait laws at
// K 1-200, D/E_K/1 over the wait-law load grid and M/E_K/1 over part of it
// (its law keeps every pole at low load, so each costs more): the law
// stored one term per conjugate pair evaluates as the law that stores both
// members (checkFold).
func TestFoldEqualsExpanded(t *testing.T) {
	for _, queue := range []struct {
		name  string
		mek1  bool
		loads []float64
	}{
		{"DEK1", false, waitLoads},
		{"MEK1", true, []float64{1e-6, 0.01, 0.3, 0.7, 0.95, 0.98}},
	} {
		t.Run(queue.name, func(t *testing.T) {
			worst := 0.0
			for k := 1; k <= 200; k++ {
				for _, rho := range queue.loads {
					worst = max(worst, checkFold(t, k, rho, queue.mek1))
				}
			}
			t.Logf("largest distance, folded to expanded, as a share of its bound: %.3g", worst)
		})
	}
}

// FuzzFoldEqualsExpanded is TestFoldEqualsExpanded at fuzzed points of
// either queue: K is mapped to 1-200 and rho must lie in (0, 1).
func FuzzFoldEqualsExpanded(f *testing.F) {
	f.Add(uint8(8), 0.5, false)
	f.Add(uint8(199), 0.75, false)
	f.Add(uint8(0), 0.98, false)
	f.Add(uint8(155), 0.0546875, false)
	f.Add(uint8(8), 0.5, true)
	f.Add(uint8(199), 0.98, true)
	f.Add(uint8(59), 0.01, true)
	f.Fuzz(func(t *testing.T, kRaw uint8, rho float64, mek1 bool) {
		if !(rho > 0 && rho < 1) {
			return
		}
		checkFold(t, 1+int(kRaw)%200, rho, mek1)
	})
}
