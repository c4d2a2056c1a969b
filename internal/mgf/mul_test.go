package mgf

import (
	"math"
	"math/cmplx"
)

// The partial-fraction product of Appendix A: the reference the Sum tests
// compare the closed-form convolution against. The RTT law never expands a
// product (see conv.go), and no production constructor merges poles; the
// product does, through AddTerm.

// poleMergeTol is the relative distance under which two poles are treated as
// identical during a product (exact Erlang-order addition applies). Distinct
// but nearly equal poles make partial fractions ill-conditioned; merging is
// the numerically safe interpretation.
const poleMergeTol = 1e-9

// AddTerm appends a term (merging with an existing equal pole). It is the
// general term builder the product and the test laws use, and the reference
// the constructed wait laws are compared against (poles_test.go).
func (m *Mix) AddTerm(pole complex128, coef []complex128) {
	for i := range m.Terms {
		if samePole(m.Terms[i].Pole, pole) {
			if len(coef) > len(m.Terms[i].Coef) {
				grown := make([]complex128, len(coef))
				copy(grown, m.Terms[i].Coef)
				m.Terms[i].Coef = grown
			}
			for j, c := range coef {
				m.Terms[i].Coef[j] += c
			}
			return
		}
	}
	m.Terms = append(m.Terms, Term{Pole: pole, Coef: append([]complex128(nil), coef...)})
}

func samePole(a, b complex128) bool {
	return cmplx.Abs(a-b) <= poleMergeTol*math.Max(cmplx.Abs(a), cmplx.Abs(b))
}

// NewPoles returns the law atom + sum_j weights[j] * poles[j]/(poles[j]-s)
// with every pole stored as its own term, no Pair term: the unfolded form
// of NewConjugatePoles, which the test laws use.
func NewPoles(atom float64, poles, weights []complex128) Mix {
	m := NewConjugatePoles(atom, poles, weights)
	for j := range m.Terms {
		m.Terms[j].Pair = false
	}
	return m
}

// NewAtom returns the distribution of the constant 0 with mass w (w=1 is the
// Dirac delta at zero).
func NewAtom(w float64) Mix { return Mix{Atom: w} }

// Expanded returns the law m stands for with every term stored: each Pair
// term becomes its member and then its conjugate, two unpaired terms. The
// product and the reference laws the tests compare against are unfolded.
func (m Mix) Expanded() Mix {
	out := Mix{Atom: m.Atom}
	for _, t := range m.Terms {
		out.Terms = append(out.Terms, Term{Pole: t.Pole, Coef: t.Coef})
		if t.Pair {
			coef := make([]complex128, len(t.Coef))
			for i, c := range t.Coef {
				coef[i] = cmplx.Conj(c)
			}
			out.Terms = append(out.Terms, Term{Pole: cmplx.Conj(t.Pole), Coef: coef})
		}
	}
	return out
}

// newErlang returns the MGF mix of weight*Erlang(k, rate).
func newErlang(weight float64, k int, rate float64) Mix {
	coef := make([]complex128, k)
	coef[k-1] = complex(weight, 0)
	return Mix{Terms: []Term{{Pole: complex(rate, 0), Coef: coef}}}
}

// mul returns the MGF product of a and b: the law of the sum of independent
// X ~ a and Y ~ b. This is the Appendix A machinery: cross products of
// Erlang terms are re-expanded by partial fractions around each pole; equal
// poles merge exactly (Erlang orders add). The expansion is exact in exact
// arithmetic but ill-conditioned in float64 when poles of a and b nearly
// coincide, which is why the RTT law is a Sum instead (see conv.go).
func mul(a, b Mix) Mix {
	out := Mix{Atom: a.Atom * b.Atom}
	// Atom x terms cross products.
	for _, t := range b.Terms {
		if a.Atom != 0 {
			out.AddTerm(t.Pole, scaleCoef(t.Coef, complex(a.Atom, 0)))
		}
	}
	for _, t := range a.Terms {
		if b.Atom != 0 {
			out.AddTerm(t.Pole, scaleCoef(t.Coef, complex(b.Atom, 0)))
		}
	}
	// Term x term cross products.
	for _, ta := range a.Terms {
		for _, tb := range b.Terms {
			if samePole(ta.Pole, tb.Pole) {
				mulSamePole(&out, ta, tb)
			} else {
				mulDistinctPoles(&out, ta, tb)
				mulDistinctPoles(&out, tb, ta)
			}
		}
	}
	return out
}

// scaleCoef returns coef*w.
func scaleCoef(coef []complex128, w complex128) []complex128 {
	out := make([]complex128, len(coef))
	for i, c := range coef {
		out[i] = c * w
	}
	return out
}

// mulSamePole handles (p/(p-s))^n * (p/(p-s))^m = (p/(p-s))^(n+m): the
// convolution of Erlangs with a common rate is an Erlang.
func mulSamePole(out *Mix, ta, tb Term) {
	coef := make([]complex128, len(ta.Coef)+len(tb.Coef))
	for i, ca := range ta.Coef {
		if ca == 0 {
			continue
		}
		for j, cb := range tb.Coef {
			if cb == 0 {
				continue
			}
			coef[i+j+1] += ca * cb
		}
	}
	out.AddTerm(ta.Pole, coef)
}

// mulDistinctPoles adds the principal part at ta.Pole of the product
// F_ta(s) * G_tb(s), following Appendix A: with G's Taylor coefficients
// g_m at the pole p, the cross term A_i (p/(p-s))^{i+1} * G(s) contributes
// A_i (-1)^m g_m p^m to order (i+1-m) at p, for m = 0..i.
func mulDistinctPoles(out *Mix, ta, tb Term) {
	maxOrder := len(ta.Coef)
	g := taylorAt(tb, ta.Pole, maxOrder)
	coef := make([]complex128, maxOrder)
	sign := func(m int) complex128 {
		if m%2 == 1 {
			return -1
		}
		return 1
	}
	pm := make([]complex128, maxOrder) // pole^m
	pw := complex(1, 0)
	for m := 0; m < maxOrder; m++ {
		pm[m] = pw
		pw *= ta.Pole
	}
	for i, ai := range ta.Coef {
		if ai == 0 {
			continue
		}
		n := i + 1
		for m := 0; m < n; m++ {
			order := n - m // resulting Erlang order
			coef[order-1] += ai * sign(m) * g[m] * pm[m]
		}
	}
	out.AddTerm(ta.Pole, coef)
}

// taylorAt returns the first n Taylor coefficients g_m = G^{(m)}(x)/m! of the
// term function G(s) = sum_j B_j (q/(q-s))^{j+1} around s = x:
// g_m = sum_j B_j q^{j+1} C(j+m, m) (q-x)^{-(j+1+m)}.
func taylorAt(t Term, x complex128, n int) []complex128 {
	g := make([]complex128, n)
	q := t.Pole
	qx := q - x
	for j, bj := range t.Coef {
		if bj == 0 {
			continue
		}
		// base = q^{j+1} (q-x)^{-(j+1)}; then multiply by C(j+m,m)(q-x)^{-m}.
		base := cmplx.Pow(q/qx, complex(float64(j+1), 0))
		binom := complex(1, 0) // C(j+0, 0)
		inv := complex(1, 0)   // (q-x)^{-m}
		for m := 0; m < n; m++ {
			if m > 0 {
				binom *= complex(float64(j+m), 0) / complex(float64(m), 0)
				inv /= qx
			}
			g[m] += bj * base * binom * inv
		}
	}
	return g
}

// mulAll folds mul over the argument list (Dirac at 0 is the unit).
func mulAll(ms ...Mix) Mix {
	out := NewAtom(1)
	for _, m := range ms {
		out = mul(out, m)
	}
	return out
}
