// Package mgf implements the rational moment-generating-function algebra of
// the paper's Appendix A: distributions on [0, inf) represented as
//
//	F(s) = Atom + sum_j sum_i Coef[j][i] * (p_j/(p_j - s))^(i+1)
//
// i.e. an atom at zero plus a weighted sum of (possibly complex) Erlang
// terms. A Mix is one such law; its tail, and hence its quantile, is closed
// form. Every law is built in the shape it is used in: NewExponential, and
// NewConjugatePoles for an atom plus simple poles that are distinct by
// construction (the queueing wait laws). No constructor merges poles.
//
// The RTT law of §3.3 is the product of the upstream delay Du(s), the
// downstream burst delay W(s) and the packet-position delay P(s). Sum keeps
// those three factors apart, builds P itself from (K, beta) as the uniform
// ladder of eq. (34), and evaluates the tail of their convolution in closed
// form through divided differences of the exponential (conv.go), which
// stays accurate where the expanded product loses every digit to crowding
// poles. Quantile inverts either law (invert.go).
//
// Poles may be complex: the D/E_K/1 and M/E_K/1 waiting times each have one
// real pole (two for even K) and floor((K-1)/2) complex-conjugate pole
// pairs. Coefficients come in conjugate pairs too, so tails and densities
// are real. A wait law stores each conjugate pair as one Pair term
// (NewConjugatePoles), which every evaluator folds to 2·Re of its member,
// so its imaginary mass is exactly 0; a law that stores both members of a
// pair (the tests' expanded references) is real only up to rounding. All
// evaluation methods return the real part and the Validate method bounds
// the imaginary residue.
package mgf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrInvalid reports a Mix that is not a plausible probability law.
var ErrInvalid = errors.New("mgf: invalid mix")

// Term is one pole with its Erlang coefficient ladder: Coef[i] multiplies
// (Pole/(Pole-s))^(i+1). A Pair term also stands for its conjugate, the term
// with pole conj(Pole) and coefficients conj(Coef[i]): on the real axis the
// two sum to twice the real part of one, so every evaluator adds 2·Re of
// the stored member (fold) and pays for one term, not two.
type Term struct {
	Pole complex128
	Coef []complex128
	Pair bool
}

// fold returns v, a term's contribution to a real-axis evaluation, plus that
// of its conjugate for a Pair term: 2·Re v, with an exactly zero imaginary
// part.
func (t Term) fold(v complex128) complex128 {
	if t.Pair {
		return complex(2*real(v), 0)
	}
	return v
}

// Mix is an atom at zero plus a sum of Erlang terms. The zero value is the
// MGF of the constant 0 with total mass 0; Mix{Atom: 1} is the constant 0,
// and the queueing constructors build the other valid distributions.
type Mix struct {
	Atom  float64
	Terms []Term
}

// NewExponential returns the MGF mix of weight*Exp(rate).
func NewExponential(weight, rate float64) Mix {
	return Mix{Terms: []Term{{Pole: complex(rate, 0), Coef: []complex128{complex(weight, 0)}}}}
}

// NewConjugatePoles returns the law atom + sum_j weights[j] *
// poles[j]/(poles[j]-s), an atom plus simple poles whose poles off the real
// axis come in conjugate pairs with conjugate weights, handed over one
// member per pair: each pole with a nonzero imaginary part becomes a Pair
// term and stands for itself and its conjugate. A real pole stands for
// itself alone. The law is built in one allocation: term j's one-element
// Coef aliases weights[j], so the caller hands weights over. Nothing is
// merged or checked; the poles are the caller's, distinct by construction.
func NewConjugatePoles(atom float64, poles, weights []complex128) Mix {
	m := Mix{Atom: atom}
	if len(poles) > 0 {
		m.Terms = make([]Term, len(poles))
		for j, p := range poles {
			m.Terms[j] = Term{Pole: p, Coef: weights[j : j+1 : j+1], Pair: imag(p) != 0}
		}
	}
	return m
}

// Eval evaluates the MGF at the real point s. Eval(0) is the total
// probability mass.
func (m Mix) Eval(s float64) complex128 {
	sum := complex(m.Atom, 0)
	for _, t := range m.Terms {
		base := t.Pole / (t.Pole - complex(s, 0))
		pw := complex(1, 0)
		for _, c := range t.Coef {
			pw *= base
			sum += t.fold(c * pw)
		}
	}
	return sum
}

// TotalMass returns Eval(0) as a real number.
func (m Mix) TotalMass() float64 { return real(m.Eval(0)) }

// Mean returns the first moment: sum over terms of coef*(order)/pole.
func (m Mix) Mean() float64 {
	var sum complex128
	for _, t := range m.Terms {
		for i, c := range t.Coef {
			sum += t.fold(c * complex(float64(i+1), 0) / t.Pole)
		}
	}
	return real(sum)
}

// Tail returns P(X > x). For x <= 0 it returns the total non-negative mass
// beyond zero (1 - Atom for a normalized mix).
func (m Mix) Tail(x float64) float64 {
	t, _ := m.tailDensity(x)
	return t
}

// tailDensity returns Tail(x) and the density at x from one pass over the
// terms (see termTail); for x < 0 the density is 0.
func (m Mix) tailDensity(x float64) (tail, density float64) {
	if x < 0 {
		return m.TotalMass(), 0
	}
	var t, f complex128
	for _, term := range m.Terms {
		tt, tf := termTail(term, term.Pole*complex(x, 0))
		t += term.fold(tt)
		f += term.fold(tf)
	}
	return real(t), real(f)
}

// termTail computes sum_i coef_i * P(Erlang(i+1, pole) > x) in complex
// arithmetic, given px = pole*x: e^{-px} * sum_{r<=i} (px)^r / r!,
// accumulated incrementally to avoid overflow. The Erlang density is pole
// times the last ladder term, pole e^{-px} (px)^i/i!, so the second result,
// the terms' density at x, costs one product per coefficient. The ladder
// advance past the last coefficient is dead and skipped; the division by the
// real order uses the componentwise form (see divRe) — both bit-identical to
// the plain loop.
func termTail(t Term, px complex128) (tail, density complex128) {
	// partial[i] after step i holds e^{-px} * sum_{r=0..i} (px)^r/r!.
	term := cmplx.Exp(-px) // r = 0 term
	partial := term
	last := len(t.Coef) - 1
	for i, c := range t.Coef {
		tail += c * partial
		density += c * term
		if i < last {
			// Extend the inner sum for the next order.
			term *= divRe(px, float64(i+1))
			partial += term
		}
	}
	return tail, t.Pole * density
}

// divRe divides z by a real divisor componentwise. For a divisor with exact
// zero imaginary part the runtime's scaled (Smith) complex division reduces
// to exactly this — the cross ratio is a signed zero, so both quotient
// components round identically — making the substitution bit-identical while
// skipping the division's magnitude tests and scaling branches.
func divRe(z complex128, d float64) complex128 {
	return complex(real(z)/d, imag(z)/d)
}

// Quantile returns the smallest x >= 0 with P(X <= x) >= p, assuming the mix
// is a normalized probability law. The Newton iteration starts at the mean
// (see invert.go).
func (m Mix) Quantile(p float64) (float64, error) {
	return invertTail(m.tailDensity, m.Mean(), p, 1e-12)
}

// DominantPole returns the pole with the smallest real part (the slowest
// exponential decay) and its total coefficient ladder, or ok=false for a
// pure atom; of a Pair term, the stored member. The §3.3 dominant-pole
// approximation keeps only this term.
func (m Mix) DominantPole() (pole complex128, ok bool) {
	best := math.Inf(1)
	for _, t := range m.Terms {
		nonzero := false
		for _, c := range t.Coef {
			if c != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			continue
		}
		if re := real(t.Pole); re < best {
			best = re
			pole = t.Pole
			ok = true
		}
	}
	return pole, ok
}

// Validate checks, in O(poles), that m plausibly is a probability
// distribution: total mass 1, atom in [0,1], imaginary mass within 1e-8 of
// zero and a finite non-negative mean. Every check is written so that a NaN
// fails it. It returns a descriptive error for the first check that fails.
// It does not evaluate the tail: each queue's wait law is fixed by (K, rho)
// up to its time scale, so the tests scan the tails of both queues' laws
// over that whole vocabulary instead.
func (m Mix) Validate() error {
	mass := m.Eval(0)
	if !(math.Abs(real(mass)-1) <= 1e-6) {
		return fmt.Errorf("%w: total mass %v", ErrInvalid, real(mass))
	}
	if !(-1e-9 <= m.Atom && m.Atom <= 1+1e-9) {
		return fmt.Errorf("%w: atom %v", ErrInvalid, m.Atom)
	}
	if !(math.Abs(imag(mass)) <= 1e-8) {
		return fmt.Errorf("%w: imaginary mass %v", ErrInvalid, imag(mass))
	}
	if mean := m.Mean(); !(-1e-9 <= mean && mean <= math.MaxFloat64) {
		return fmt.Errorf("%w: mean %v", ErrInvalid, mean)
	}
	return nil
}

// String summarizes the mix (atom, number of terms, dominant pole).
func (m Mix) String() string {
	pole, ok := m.DominantPole()
	if !ok {
		return fmt.Sprintf("Mix{atom=%.4g}", m.Atom)
	}
	orders := 0
	for _, t := range m.Terms {
		orders += len(t.Coef)
	}
	return fmt.Sprintf("Mix{atom=%.4g, terms=%d, orders=%d, dominant=%.4g%+.4gi}",
		m.Atom, len(m.Terms), orders, real(pole), imag(pole))
}
