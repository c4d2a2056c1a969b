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

// The wait laws W are built by construction: one pole per root, no pole
// merged (mgf.NewPoles; the D/E_K/1 law stores one pole per conjugate pair,
// mgf.NewConjugatePoles). These tests pin the law each W stands for,
// Mix.Expanded, against the general term builder the product uses, AddTerm,
// which merges poles within 1e-9 relative.

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

// waitLaw returns the wait-law pair of the D/E_K/1 (mek1 false) or M/E_K/1
// queue at Erlang order k and load rho. An error of the queue or its root
// solve fails both.
func waitLaw(k int, rho float64, mek1 bool) waitPair {
	var p waitPair
	var ps, ws []complex128
	var atom float64
	if mek1 {
		q, err := queueing.NewMEK1(rho, k, float64(k))
		if err != nil {
			return waitPair{err: err, refErr: err}
		}
		sol, err := q.Solve()
		if err != nil {
			return waitPair{err: err, refErr: err}
		}
		p.w, p.err = sol.WaitMix()
		if atom, ps, ws, p.refErr = sol.WaitPoles(); p.refErr != nil {
			return p
		}
	} else {
		q, err := queueing.NewDEK1(k, rho*0.05, 0.05)
		if err != nil {
			return waitPair{err: err, refErr: err}
		}
		sol, err := q.Solve()
		if err != nil {
			return waitPair{err: err, refErr: err}
		}
		p.w, p.err = sol.WaitMix()
		atom, ps, ws = sol.WaitPoles()
	}
	p.ref = mgf.NewAtom(atom)
	for j, pole := range ps {
		p.ref.AddTerm(pole, []complex128{ws[j]})
		p.poles++
		if !mek1 && imag(pole) != 0 {
			p.ref.AddTerm(cmplx.Conj(pole), []complex128{cmplx.Conj(ws[j])})
			p.poles++
		}
	}
	p.refErr = p.ref.Validate()
	return p
}

// mergingLoads are loads at which the M/E_K/1 root solve returns exactly
// equal roots at K 32-34, roots AddTerm merges: every such law is rejected.
var mergingLoads = []float64{0.13, 0.2, 0.28, 0.29, 0.32, 0.49, 0.58, 0.61, 0.74, 0.86, 0.87}

// TestWaitMixMatchesAddTerm compares every constructed wait law with the
// AddTerm-built reference field for field, or checks that both fail: the
// D/E_K/1 law at K 2-200 over the load grid, the M/E_K/1 law at K 2-200 over
// a coarser one and at K 32-34 over mergingLoads. A reference that merged
// poles must be a rejected law, so that not merging changes no answer; the
// M/E_K/1 grid must reach such references.
func TestWaitMixMatchesAddTerm(t *testing.T) {
	for _, queue := range []struct {
		name   string
		mek1   bool
		loads  func(k int) []float64
		merges bool
	}{
		{"D/E_K/1", false, func(int) []float64 { return waitLoads }, false},
		{"M/E_K/1", true, func(k int) []float64 {
			if k >= 32 && k <= 34 {
				return append([]float64{0.05, 0.5, 0.98}, mergingLoads...)
			}
			return []float64{0.05, 0.5, 0.98}
		}, true},
	} {
		laws, rejected, merged := 0, 0, 0
		for k := 2; k <= 200; k++ {
			for _, rho := range queue.loads(k) {
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
		if queue.merges && merged == 0 {
			t.Errorf("%s: no reference merged poles; the grid no longer reaches equal roots", queue.name)
		}
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

// FuzzWaitMixPolesDistinct pins that every wait law a queue serves has
// pairwise distinct poles: more than 1e-9 apart, relative, the distance
// under which AddTerm would have merged them. K is mapped to 2-200 and
// rho must lie in (0, 1).
func FuzzWaitMixPolesDistinct(f *testing.F) {
	f.Add(uint8(7), 0.5, false)
	f.Add(uint8(198), 0.95, false)
	f.Add(uint8(150), 0.25, false)
	f.Add(uint8(0), 1e-6, false)
	// K = 156: the roots crowd within 5e-10 of each other, relative, and
	// every weight underflows to zero, so W is the unit atom.
	f.Add(uint8(154), 0.0546875, false)
	f.Add(uint8(7), 0.5, true)
	f.Add(uint8(31), 0.98, true)
	f.Fuzz(func(t *testing.T, kRaw uint8, rho float64, mek1 bool) {
		k := 2 + int(kRaw)%199
		if !(rho > 0 && rho < 1) {
			return
		}
		p := waitLaw(k, rho, mek1)
		if p.err != nil {
			return
		}
		if gap := poleGap(p.w); !(gap > 1e-9) {
			t.Errorf("K=%d rho=%g M/E_K/1=%v: served wait law has poles %g apart, relative", k, rho, mek1, gap)
		}
	})
}

// foldLevels are the quantile levels the fold tests compare at.
var foldLevels = []float64{0.9, 0.99, 0.9999, 0.999999}

// foldTol bounds the distance between a folded D/E_K/1 law and the same
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

// checkFold compares the D/E_K/1 wait law at Erlang order k and load rho,
// stored one term per conjugate pair, with its expansion (Mix.Expanded),
// and checks that its imaginary mass is exactly 0:
//   - the total mass, the mean, and the tail and density at half of and at
//     each quantile within foldTol of their term-magnitude scales;
//   - each quantile within Mix.Quantile's own tolerance, 1e-12·(1+x);
//   - the tail of a Sum over each at two of the folded Sum's quantiles
//     within foldTol relative: a Sum tail adds the factors' positive
//     masses, no noise.
//
// It returns the largest share of its bound a distance used; a queue whose
// solve or law is rejected is skipped.
func checkFold(t *testing.T, k int, rho float64) float64 {
	t.Helper()
	q, err := queueing.NewDEK1(k, rho*0.05, 0.05)
	if err != nil {
		return 0
	}
	w, err := q.WaitMix()
	if err != nil {
		return 0
	}
	name := fmt.Sprintf("K=%d rho=%g", k, rho)
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
		near(fmt.Sprintf("quantile(%g)", p), got, want, 1+want, 1e-12)
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
	u := mgf.NewExponential(0.3, q.Beta()/4)
	u.Atom = 0.7
	sf, err := mgf.NewSum(u, w, k, q.Beta())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	se, err := mgf.NewSum(u, e, k, q.Beta())
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

// TestFoldEqualsExpanded pins the conjugate fold over D/E_K/1 at K 1-200 x
// the wait-law load grid: the law stored one term per conjugate pair
// evaluates as the law that stores both members (checkFold).
func TestFoldEqualsExpanded(t *testing.T) {
	worst := 0.0
	for k := 1; k <= 200; k++ {
		for _, rho := range waitLoads {
			worst = max(worst, checkFold(t, k, rho))
		}
	}
	t.Logf("largest distance, folded to expanded, as a share of its bound: %.3g", worst)
}

// FuzzFoldEqualsExpanded is TestFoldEqualsExpanded at fuzzed points: K is
// mapped to 1-200 and rho must lie in (0, 1).
func FuzzFoldEqualsExpanded(f *testing.F) {
	f.Add(uint8(8), 0.5)
	f.Add(uint8(199), 0.75)
	f.Add(uint8(0), 0.98)
	f.Add(uint8(155), 0.0546875)
	f.Fuzz(func(t *testing.T, kRaw uint8, rho float64) {
		if !(rho > 0 && rho < 1) {
			return
		}
		checkFold(t, 1+int(kRaw)%200, rho)
	})
}
