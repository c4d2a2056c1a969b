package mgf_test

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/mgf"
)

// This file is the accuracy oracle for Sum.Tail: the Appendix-A product of
// the same float64 factors, expanded and inverted in math/big at a
// precision sized from pole crowding. In exact arithmetic Mul is exact, so
// the oracle depends on no scheme the package uses in float64.

// bigc is a complex number of big.Floats at the oracle's precision.
type bigc struct{ re, im *big.Float }

// oracle does big-complex arithmetic at one precision.
type oracle struct{ prec uint }

func (o oracle) f() *big.Float { return new(big.Float).SetPrec(o.prec) }

func (o oracle) c(z complex128) bigc {
	return bigc{o.f().SetFloat64(real(z)), o.f().SetFloat64(imag(z))}
}

func (o oracle) zero() bigc { return o.c(0) }

func (o oracle) add(a, b bigc) bigc {
	return bigc{o.f().Add(a.re, b.re), o.f().Add(a.im, b.im)}
}

func (o oracle) sub(a, b bigc) bigc {
	return bigc{o.f().Sub(a.re, b.re), o.f().Sub(a.im, b.im)}
}

func (o oracle) neg(a bigc) bigc { return bigc{o.f().Neg(a.re), o.f().Neg(a.im)} }

func (o oracle) mul(a, b bigc) bigc {
	rr, ii := o.f().Mul(a.re, b.re), o.f().Mul(a.im, b.im)
	ri, ir := o.f().Mul(a.re, b.im), o.f().Mul(a.im, b.re)
	return bigc{rr.Sub(rr, ii), ri.Add(ri, ir)}
}

func (o oracle) inv(a bigc) bigc {
	d := o.f().Mul(a.re, a.re)
	d.Add(d, o.f().Mul(a.im, a.im))
	return bigc{o.f().Quo(a.re, d), o.f().Neg(o.f().Quo(a.im, d))}
}

// scaleInt multiplies a by n/d for integers n and d: both are exact
// big.Floats, so no float64 rounding of a ratio enters the oracle.
func (o oracle) scaleInt(a bigc, n, d int64) bigc {
	fn, fd := o.f().SetInt64(n), o.f().SetInt64(d)
	re := o.f().Mul(a.re, fn)
	im := o.f().Mul(a.im, fn)
	return bigc{re.Quo(re, fd), im.Quo(im, fd)}
}

func (o oracle) scaleBig(a bigc, s *big.Float) bigc {
	return bigc{o.f().Mul(a.re, s), o.f().Mul(a.im, s)}
}

func (o oracle) isZero(a bigc) bool { return a.re.Sign() == 0 && a.im.Sign() == 0 }

// exp returns e^z: the Taylor series at z/2^k with |z/2^k| < 2^-r, squared
// k times. Each squaring doubles the relative error, so the series runs k
// bits above the oracle's precision. r = sqrt(2 prec) balances the series'
// ~prec/r terms, each about two multiplications, against the r squarings.
func (o oracle) exp(z bigc) bigc {
	mag := math.Max(math.Abs(bigF(z.re)), math.Abs(bigF(z.im)))
	k := 0
	if mag > 0 {
		k = max(0, math.Ilogb(mag)+1+int(math.Sqrt(2*float64(o.prec))))
	}
	w := oracle{o.prec + uint(k) + 32}
	y := bigc{w.f().SetMantExp(z.re, -k), w.f().SetMantExp(z.im, -k)}
	sum, term := w.c(1), w.c(1)
	eps := new(big.Float).SetMantExp(big.NewFloat(1), -int(w.prec)-8)
	for n := int64(1); ; n++ {
		term = w.scaleInt(w.mul(term, y), 1, n)
		sum = w.add(sum, term)
		if new(big.Float).Abs(term.re).Cmp(eps) < 0 && new(big.Float).Abs(term.im).Cmp(eps) < 0 {
			break
		}
	}
	for ; k > 0; k-- {
		sum = w.mul(sum, sum)
	}
	return bigc{o.f().Set(sum.re), o.f().Set(sum.im)}
}

func bigF(x *big.Float) float64 { v, _ := x.Float64(); return v }

// bterm and bmix mirror Term and Mix. A term keeps its float64 pole as the
// identity for merging: the oracle merges exactly equal poles only.
type bterm struct {
	pole  complex128
	coef  []bigc
	bpole bigc
}

type bmix struct {
	atom  bigc
	terms []bterm
}

// fromMix returns m's law in big arithmetic, every term stored: a Pair term
// becomes its member and the conjugate, formed here by negating the big
// imaginary parts, so the oracle does not lean on the fold it checks.
func (o oracle) fromMix(m mgf.Mix) bmix {
	out := bmix{atom: o.c(complex(m.Atom, 0))}
	for _, t := range m.Terms {
		coef := make([]bigc, len(t.Coef))
		for i, c := range t.Coef {
			coef[i] = o.c(c)
		}
		bp := o.c(t.Pole)
		out.terms = append(out.terms, bterm{t.Pole, coef, bp})
		if t.Pair {
			conj := make([]bigc, len(coef))
			for i, c := range coef {
				conj[i] = bigc{c.re, o.f().Neg(c.im)}
			}
			out.terms = append(out.terms, bterm{cmplx.Conj(t.Pole), conj, bigc{bp.re, o.f().Neg(bp.im)}})
		}
	}
	return out
}

func (o oracle) addTerm(m *bmix, pole complex128, coef []bigc) {
	for i := range m.terms {
		if m.terms[i].pole == pole {
			t := &m.terms[i]
			for len(t.coef) < len(coef) {
				t.coef = append(t.coef, o.zero())
			}
			for j, c := range coef {
				t.coef[j] = o.add(t.coef[j], c)
			}
			return
		}
	}
	m.terms = append(m.terms, bterm{pole, coef, o.c(pole)})
}

// mulMix is Mul's Appendix-A expansion in big arithmetic.
func (o oracle) mulMix(a, b bmix) bmix {
	out := bmix{atom: o.mul(a.atom, b.atom)}
	scaled := func(t bterm, w bigc) []bigc {
		c := make([]bigc, len(t.coef))
		for i := range t.coef {
			c[i] = o.mul(t.coef[i], w)
		}
		return c
	}
	if !o.isZero(a.atom) {
		for _, t := range b.terms {
			o.addTerm(&out, t.pole, scaled(t, a.atom))
		}
	}
	if !o.isZero(b.atom) {
		for _, t := range a.terms {
			o.addTerm(&out, t.pole, scaled(t, b.atom))
		}
	}
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			if ta.pole == tb.pole {
				coef := make([]bigc, len(ta.coef)+len(tb.coef))
				for i := range coef {
					coef[i] = o.zero()
				}
				for i, ca := range ta.coef {
					for j, cb := range tb.coef {
						coef[i+j+1] = o.add(coef[i+j+1], o.mul(ca, cb))
					}
				}
				o.addTerm(&out, ta.pole, coef)
			}
		}
		o.principal(&out, ta, b.terms)
	}
	for _, tb := range b.terms {
		o.principal(&out, tb, a.terms)
	}
	return out
}

// principal adds the principal part at ta's pole of ta x (the sum of the
// terms of others at other poles): with g_m = sum_j B_j q^{j+1} C(j+m, m)
// (q-p)^{-(j+1+m)} the Taylor coefficients of such a term at p, summed over
// them, order i+1 contributes A_i (-1)^m g_m p^m to order i+1-m.
func (o oracle) principal(out *bmix, ta bterm, others []bterm) {
	n := len(ta.coef)
	p := ta.bpole
	g := make([]bigc, n)
	for m := range g {
		g[m] = o.zero()
	}
	for _, tb := range others {
		if tb.pole == ta.pole {
			continue
		}
		q := tb.bpole
		iqx := o.inv(o.sub(q, p))
		ratio := o.mul(q, iqx)
		base := o.c(1)
		for j, bj := range tb.coef {
			base = o.mul(base, ratio) // (q/(q-p))^{j+1}
			term := o.mul(bj, base)
			for m := 0; m < n; m++ {
				if m > 0 {
					term = o.scaleInt(o.mul(term, iqx), int64(j+m), int64(m)) // C(j+m, m) (q-p)^{-m}
				}
				g[m] = o.add(g[m], term)
			}
		}
	}
	coef := make([]bigc, n)
	for i := range coef {
		coef[i] = o.zero()
	}
	pm := o.c(1)
	for m := 0; m < n; m++ {
		s := o.mul(g[m], pm)
		if m%2 == 1 {
			s = o.neg(s)
		}
		for i := m; i < n; i++ {
			coef[i-m] = o.add(coef[i-m], o.mul(ta.coef[i], s))
		}
		pm = o.mul(pm, p)
	}
	o.addTerm(out, ta.pole, coef)
}

// tail returns the real part of the expanded mix's tail at x:
// sum coef_i e^{-px} sum_{r<=i} (px)^r/r!. The exponential at a pole whose
// conjugate came earlier is the conjugate of that one's: the big arithmetic
// is symmetric under conjugation, so it is the same bits exp returns.
func (o oracle) tail(m bmix, x float64) *big.Float {
	bx := o.f().SetFloat64(x)
	sum := o.zero()
	exps := make(map[complex128]bigc, len(m.terms))
	for _, t := range m.terms {
		px := o.scaleBig(t.bpole, bx)
		term, ok := exps[cmplx.Conj(t.pole)]
		if ok {
			term = bigc{term.re, o.f().Neg(term.im)}
		} else {
			term = o.exp(o.neg(px))
		}
		exps[t.pole] = term
		partial := term
		for i, c := range t.coef {
			if i > 0 {
				term = o.scaleInt(o.mul(term, px), 1, int64(i))
				partial = o.add(partial, term)
			}
			sum = o.add(sum, o.mul(c, partial))
		}
	}
	return sum.re
}

// oracleLaw is a Sum's exact expansion at a precision of 256 bits plus
// 2(K+1) log2 of the worst |pole|/gap ratio over its factors' poles.
type oracleLaw struct {
	o   oracle
	mix bmix
}

func newOracleLaw(s mgf.Sum) oracleLaw {
	u, w, p := s.Factors()
	var poles []complex128
	order := 1
	for _, f := range []mgf.Mix{u, w, p} {
		for _, t := range f.Terms {
			poles = append(poles, t.Pole)
			if t.Pair {
				poles = append(poles, cmplx.Conj(t.Pole))
			}
			order = max(order, len(t.Coef)+2)
		}
	}
	worst := 1.0
	for i, a := range poles {
		for _, b := range poles[i+1:] {
			if a != b {
				worst = max(worst, math.Max(cmplx.Abs(a), cmplx.Abs(b))/cmplx.Abs(a-b))
			}
		}
	}
	o := oracle{256 + uint(2*float64(order)*math.Ceil(math.Log2(worst)))}
	return oracleLaw{o, o.mulMix(o.fromMix(w), o.mulMix(o.fromMix(u), o.fromMix(p)))}
}

func (l oracleLaw) tail(x float64) float64 { return bigF(l.o.tail(l.mix, x)) }

// oracleCase is one law of the oracle grid.
type oracleCase struct {
	name string
	law  mgf.Sum
}

// multiServerOrders are the Erlang orders of the oracle's multi-server laws.
var multiServerOrders = []int{2, 9, 23, 60, 100, 200}

// oracleCases returns the paper grid K x rho, the multi-server law at
// multiServerOrders and the PS=75 uplink corner, where the upstream pole
// nearly vanishes.
func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	for _, k := range []int{2, 3, 5, 8, 9, 12, 17, 18, 20, 25, 30} {
		for _, rho := range []float64{0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95} {
			cases = append(cases, oracleCase{fmt.Sprintf("K=%d rho=%g", k, rho), paperSum(t, k, rho)})
		}
	}
	for _, k := range multiServerOrders {
		ms := core.MultiServer{PerServer: paperModel(k), Servers: 4}
		ms.PerServer.Gamers = 20
		cm, err := ms.Compile()
		if err != nil {
			t.Fatalf("multi-server K=%d: %v", k, err)
		}
		law := cm.Law().Law()
		name := "multi-server S=4 N=20" // the paper's K = 9
		if k != 9 {
			name += fmt.Sprintf(" K=%d", k)
		}
		cases = append(cases, oracleCase{name, law})
	}
	corner := paperModel(9)
	corner.ServerPacketBytes = 75
	cases = append(cases, oracleCase{"PS=75 rho=0.93749", compiledSum(t, corner.WithDownlinkLoad(0.93749))})
	return cases
}

// TestSumTailMatchesOracle holds Sum.Tail within 1e-12 relative of the
// oracle at a quarter of, at, and at three times the served quantile for
// levels 0.99 to 0.999999, and checks that the served quantile brackets
// the oracle's root to 1e-9 relative.
func TestSumTailMatchesOracle(t *testing.T) {
	const tol = 1e-12
	for _, c := range oracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ol := newOracleLaw(c.law)
			worst := 0.0
			for _, p := range []float64{0.99, 0.999, 0.99999, 0.999999} {
				q, err := c.law.Quantile(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range []float64{q / 4, q, 3 * q} {
					got, want := c.law.Tail(x), ol.tail(x)
					rel := math.Abs(got-want) / math.Abs(want)
					worst = max(worst, rel)
					if !(rel <= tol) {
						t.Errorf("p=%g tail(%g) = %.17g, oracle %.17g (rel %.3g)", p, x, got, want, rel)
					}
				}
				if lo := ol.tail(q * (1 - 1e-9)); !(lo >= 1-p) {
					t.Errorf("p=%g: oracle tail %.17g below %g at x̂(1-1e-9) = %g", p, lo, 1-p, q*(1-1e-9))
				}
				if hi := ol.tail(q * (1 + 1e-9)); !(hi <= 1-p) {
					t.Errorf("p=%g: oracle tail %.17g above %g at x̂(1+1e-9) = %g", p, hi, 1-p, q*(1+1e-9))
				}
			}
			t.Logf("precision %d bits, worst relative error %.3g", ol.o.prec, worst)
		})
	}
}
