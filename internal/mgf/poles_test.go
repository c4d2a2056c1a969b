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
// merged (mgf.NewPoles). These tests pin that against the general term
// builder the product uses, AddTerm, which merges poles within 1e-9
// relative.

// waitLoads is the load grid of the wait-law tests, from a vanishing load to
// near saturation.
var waitLoads = []float64{1e-6, 1e-4, 0.01, 0.05, 0.055, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98}

// waitPair is a queue's wait law W and the AddTerm reference over the same
// atom, poles and weights: each a validated law or an error.
type waitPair struct {
	w, ref      mgf.Mix
	err, refErr error
	poles       int // the number of poles handed to both
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
	p.ref, p.poles = mgf.NewAtom(atom), len(ps)
	for j, pole := range ps {
		p.ref.AddTerm(pole, []complex128{ws[j]})
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
				case !reflect.DeepEqual(p.w, p.ref) || math.Float64bits(p.w.Atom) != math.Float64bits(p.ref.Atom):
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
// two poles of m, or +Inf for fewer than two.
func poleGap(m mgf.Mix) float64 {
	gap := math.Inf(1)
	for i, a := range m.Terms {
		for _, b := range m.Terms[i+1:] {
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
