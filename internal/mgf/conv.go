package mgf

import (
	"math"
	"math/cmplx"
)

// The Appendix-A product Mul is exact in exact arithmetic but becomes
// ill-conditioned in float64 when poles of the two factors nearly coincide:
// the Taylor coefficients it expands through grow like
// (|p|/|p-q|)^order, amplifying coefficient rounding noise. In the paper's
// own setting this happens at low downstream load, where the D/E_K/1 poles
// alpha_j = beta(1-zeta_j) crowd around the packet-position pole beta as
// zeta_j -> 0.
//
// Sum is the numerically robust alternative: it represents the law of X+Y
// without expanding it, evaluating tails by direct convolution quadrature of
// the two stable factor representations. EstimateMulError quantifies the
// amplification so callers can pick the representation.

// EstimateMulError returns a rough bound on the absolute coefficient error
// Mul(a, b) would commit in float64, driven by near-coincident cross poles.
// A result below ~1e-9 means Mul is safe for tail work at the paper's 1e-5
// quantile level.
func EstimateMulError(a, b Mix) float64 {
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
			// Principal part at ta.Pole uses Taylor coefficients of tb's
			// term ladder: magnitude ~ rb^(orderB+orderA); and vice versa.
			ordA, ordB := float64(len(ta.Coef)), float64(len(tb.Coef))
			amp += ma * mb * math.Pow(math.Max(rb, 1), ordA+ordB)
			amp += ma * mb * math.Pow(math.Max(ra, 1), ordA+ordB)
		}
	}
	return eps * amp
}

// Law is the read side of a delay distribution: Mix implements it in closed
// form and Sum implements it by quadrature, so sums can nest.
type Law interface {
	// Tail returns P(X > x).
	Tail(x float64) float64
	// Mean returns E[X].
	Mean() float64
	// TotalMass returns the total probability (1 for a normalized law).
	TotalMass() float64
}

// AtomOf returns the point mass at zero of any Law.
func AtomOf(l Law) float64 { return l.TotalMass() - l.Tail(0) }

// Sum is the law of X + Y for independent X ~ A and Y ~ B, kept in factored
// form. Tails are computed by convolution quadrature against A's density, so
// accuracy does not depend on pole separation (unlike Mul). Both factors
// must be normalized laws (mass 1). A should be the factor with the smaller
// continuous mass: its density scales the quadrature error.
type Sum struct {
	A Mix
	B Law
}

// Atom returns the probability mass at zero: both factors at zero.
func (s Sum) Atom() float64 { return s.A.Atom * AtomOf(s.B) }

// Mean returns E[X+Y].
func (s Sum) Mean() float64 { return s.A.Mean() + s.B.Mean() }

// TotalMass returns the product of the factor masses.
func (s Sum) TotalMass() float64 { return s.A.TotalMass() * s.B.TotalMass() }

// Tail returns P(X+Y > x):
//
//	A.Atom*B.Tail(x) + A.Tail(x) + int_0^x pdfA(u) B.Tail(x-u) du,
//
// the last term by composite Simpson quadrature with resolution tied to the
// sharpest decay rate of A. One-shot form of TailWS.
func (s Sum) Tail(x float64) float64 { return s.TailWS(x, nil) }

// sharpestDecay returns the largest pole magnitude of A: the sharpest decay
// rate, which sets the quadrature resolution. It depends only on the law, so
// an inversion hoists it out of its per-probe loop.
func (s Sum) sharpestDecay() float64 {
	sharp := 0.0
	for _, t := range s.A.Terms {
		if r := cmplx.Abs(t.Pole); r > sharp {
			sharp = r
		}
	}
	return sharp
}

// expResetStride is how many recurrence steps the grid evaluators take
// between exact cmplx.Exp re-anchors: the multiplicative error grows like
// stride*eps, so 64 keeps each grid value within ~1.5e-14 of direct
// evaluation while paying for one transcendental per 64 panels.
const expResetStride = 64

// TailWS is Tail with all per-law quadrature state drawn from ws (nil
// borrows a pooled workspace). When B is a closed-form Mix, evaluation
// routes through the workspace's shared-grid quadrature ladder (see
// ladder.go): pole pairs whose partial-fraction expansion is well-
// conditioned go through an exact closed form, crowded pairs through moment
// prefix sums on a grid whose panel width is a function of the law alone —
// so consecutive abscissae of a bracket walk share all Simpson work.
// Abscissae outside the ladder's panel clamps, and laws whose shape the
// ladder does not carry, use the per-abscissa Simpson grids with the
// exponential-recurrence fills (e^{-p u_{i+1}} = e^{-p u_i}·e^{-p h},
// re-anchored by an exact cmplx.Exp every expResetStride steps). A
// nested-Sum B walks point by point, threading ws into the inner law.
func (s Sum) TailWS(x float64, ws *Workspace) float64 {
	return s.tailAt(x, ws, s.sharpestDecay())
}

// tailAt is TailWS with the decay-rate scan hoisted: sharp must be
// s.sharpestDecay(). Quantile computes it once per inversion.
func (s Sum) tailAt(x float64, ws *Workspace, sharp float64) float64 {
	if x < 0 {
		return s.TotalMass()
	}
	if x == 0 {
		return s.TotalMass() - s.Atom()
	}
	ws, pooled := borrowWS(ws)
	if pooled {
		defer releaseWS(ws)
	}
	bmix, fast := s.B.(Mix)
	if !fast {
		return s.tailSlow(x, ws, sharp)
	}
	if len(s.A.Terms) > 0 {
		if ld := ws.ladderFor(s.A, bmix, sharp); ld != nil {
			if v, ok := ld.tailAt(x); ok {
				return v // the ladder's closed part includes the head terms
			}
		}
	}
	return s.tailGrid(x, bmix, ws, sharp)
}

// tailGrid is the per-abscissa Simpson path: a fresh grid with panel width
// x/n, filled by the exponential-recurrence evaluators. It serves abscissae
// outside the ladder's panel clamps and laws the ladder rejects, and is the
// reference scheme the ladder's equivalence gate compares against.
func (s Sum) tailGrid(x float64, bmix Mix, ws *Workspace, sharp float64) float64 {
	bx := bmix.Tail(x) // shared by the head and the u=0 boundary term
	head := s.A.Atom*bx + s.A.Tail(x)
	if len(s.A.Terms) == 0 {
		return head
	}
	n := panelCount(sharp, x)
	h := x / float64(n)
	pdfG := fbuf(&ws.pdf, n)   // pdfG[i] = density of A at u_i = h*i, i = 1..n-1
	tailG := fbuf(&ws.tail, n) // tailG[i] = tail of B at x - u_i
	gridPDF(s.A, h, n, pdfG)
	gridTail(bmix, x, h, n, tailG)
	acc := s.A.PDF(0)*bx + s.A.PDF(x)*bmix.Tail(0)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		acc += w * pdfG[i] * tailG[i]
	}
	return head + acc*h/3
}

// panelCount is the per-abscissa composite-Simpson panel count: 64 panels
// per decay length of A in [0, x], clamped to [512, 32768], rounded to even.
func panelCount(sharp, x float64) int {
	n := int(64 * (1 + sharp*x))
	if n < 512 {
		n = 512
	}
	if n > 32768 {
		n = 32768
	}
	if n%2 == 1 {
		n++
	}
	return n
}

// tailSlow handles a B that is not a closed-form Mix — in practice a nested
// Sum, whose tail is itself a quadrature — by walking the outer Simpson grid
// point by point. The walk draws on the caller's (or one pooled) Workspace
// like the fast path: a nested Sum threads ws into every inner tail, so the
// inner law's ladder and grid buffers are built once and shared across the
// outer grid's n points instead of borrowing a fresh pool workspace per
// point.
func (s Sum) tailSlow(x float64, ws *Workspace, sharp float64) float64 {
	btail := s.B.Tail
	if bs, ok := s.B.(Sum); ok {
		bsharp := bs.sharpestDecay()
		btail = func(v float64) float64 { return bs.tailAt(v, ws, bsharp) }
	}
	bx := btail(x)
	head := s.A.Atom*bx + s.A.Tail(x)
	if len(s.A.Terms) == 0 {
		return head
	}
	n := panelCount(sharp, x)
	h := x / float64(n)
	acc := s.A.PDF(0)*bx + s.A.PDF(x)*btail(0)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		u := h * float64(i)
		acc += w * s.A.PDF(u) * btail(x-u)
	}
	return head + acc*h/3
}

// isRealTerm reports whether every number in t is purely real (imaginary
// parts exactly zero). Real terms — every D/E_K/1 dominant root's term, the
// M/M/1 upstream terms and the packet-position ladder — take float64 fast
// paths in the grid evaluators below: the complex arithmetic they replace
// propagates exact signed-zero imaginary parts through every product, sum
// and exponential, so the float64 mirror of the real components is
// bit-identical, not approximately equal.
func isRealTerm(t Term) bool {
	if imag(t.Pole) != 0 {
		return false
	}
	for _, c := range t.Coef {
		if imag(c) != 0 {
			return false
		}
	}
	return true
}

// divRe divides z by a real divisor componentwise. For a divisor with exact
// zero imaginary part the runtime's scaled (Smith) complex division reduces
// to exactly this — the cross ratio is a signed zero, so both quotient
// components round identically — making the substitution bit-identical while
// skipping the division's magnitude tests and scaling branches.
func divRe(z complex128, d float64) complex128 {
	return complex(real(z)/d, imag(z)/d)
}

// gridPDF accumulates the density of m at the interior grid points
// u_i = h*i, i = 1..n-1, into g. Per term, e^{-p u} advances by one
// multiplication per step with exact re-anchors (see expResetStride); the
// Erlang ladder on top is the same arithmetic as Mix.PDF. Purely real terms
// run in float64 (see isRealTerm); complex single-coefficient terms skip the
// ladder entirely; the final ladder advance of every term is dead and
// elided. All three shortcuts are bit-identical to the plain loop.
//
// g holds only the real components: the Simpson sum never reads the
// imaginary part of a grid value, complex accumulation is componentwise,
// and Go's complex multiply computes its real component as exactly
// real(a)*real(b) - imag(a)*imag(b) (no contraction), so accumulating that
// expression alone — in the same term order — reproduces real(g[i]) bit for
// bit while skipping the dead imaginary half of every contribution.
func gridPDF(m Mix, h float64, n int, g []float64) {
	g = g[:n]
	for _, t := range m.Terms {
		if isRealTerm(t) {
			gridPDFReal(t, h, n, g)
			continue
		}
		p := t.Pole
		step := cmplx.Exp(-p * complex(h, 0))
		last := len(t.Coef) - 1
		// The anchor/recurrence cadence runs as explicit blocks of
		// expResetStride points: an exact cmplx.Exp at the block head, one
		// recurrence multiply per point after it — the same multiplication
		// sequence as a per-point stride test, without the per-point modulo.
		// An underflowed factor (e == 0) stays zero until the next anchor,
		// so the rest of its block contributes nothing and is skipped.
		if last == 0 {
			// Single-coefficient term (every simple pole): no ladder, and
			// the coefficient's components hoist out of the grid loop.
			cr, ci := real(t.Coef[0]), imag(t.Coef[0])
			for i := 1; i < n; {
				e := cmplx.Exp(-p * complex(h*float64(i), 0))
				end := i + expResetStride
				if end > n {
					end = n
				}
				for ; i < end; i++ {
					if e == 0 {
						i = end // deep-tail underflow: contribution is negligible
						break
					}
					f := p * e // Erlang(1) density factor
					g[i] += cr*real(f) - ci*imag(f)
					e *= step
				}
			}
			continue
		}
		for i := 1; i < n; {
			e := cmplx.Exp(-p * complex(h*float64(i), 0))
			end := i + expResetStride
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				if e == 0 {
					i = end
					break
				}
				f := p * e
				pu := p * complex(h*float64(i), 0)
				for k, c := range t.Coef {
					g[i] += real(c)*real(f) - imag(c)*imag(f)
					if k < last {
						f *= divRe(pu, float64(k+1))
					}
				}
				e *= step
			}
		}
	}
}

// gridPDFReal is gridPDF's float64 mirror for purely real terms: identical
// operations on the real components (the imaginary contributions of a real
// term are signed zeros, which never change an accumulated sum).
func gridPDFReal(t Term, h float64, n int, g []float64) {
	p := real(t.Pole)
	step := math.Exp(-p * h)
	last := len(t.Coef) - 1
	if last == 0 {
		c := real(t.Coef[0])
		for i := 1; i < n; {
			e := math.Exp(-p * (h * float64(i)))
			end := i + expResetStride
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				if e == 0 {
					i = end
					break
				}
				g[i] += c * (p * e)
				e *= step
			}
		}
		return
	}
	for i := 1; i < n; {
		e := math.Exp(-p * (h * float64(i)))
		end := i + expResetStride
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			if e == 0 {
				i = end
				break
			}
			f := p * e
			pu := p * (h * float64(i))
			for k, c := range t.Coef {
				g[i] += real(c) * f
				if k < last {
					f *= pu / float64(k+1)
				}
			}
			e *= step
		}
	}
}

// gridTail accumulates the tail of m at v_i = x - h*i, i = 1..n-1, into g.
// v decreases by h each step, so e^{-q v} advances by multiplying e^{q h};
// the zero guard keeps an underflowed anchor from turning a large step
// factor into NaN. The ladder matches termTail's arithmetic, with the same
// bit-identical shortcuts as gridPDF (float64 real terms, single-coefficient
// specialization, dead final ladder advance elided).
func gridTail(m Mix, x, h float64, n int, g []float64) {
	g = g[:n]
	for _, t := range m.Terms {
		if isRealTerm(t) {
			gridTailReal(t, x, h, n, g)
			continue
		}
		q := t.Pole
		step := cmplx.Exp(q * complex(h, 0))
		last := len(t.Coef) - 1
		if last == 0 {
			cr, ci := real(t.Coef[0]), imag(t.Coef[0])
			for i := 1; i < n; {
				e := cmplx.Exp(-q * complex(x-h*float64(i), 0))
				end := i + expResetStride
				if end > n {
					end = n
				}
				for ; i < end; i++ {
					if e == 0 {
						i = end
						break
					}
					g[i] += cr*real(e) - ci*imag(e)
					e *= step
				}
			}
			continue
		}
		for i := 1; i < n; {
			e := cmplx.Exp(-q * complex(x-h*float64(i), 0))
			end := i + expResetStride
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				if e == 0 {
					i = end
					break
				}
				qv := q * complex(x-h*float64(i), 0)
				term := e
				partial := term
				for k, c := range t.Coef {
					g[i] += real(c)*real(partial) - imag(c)*imag(partial)
					if k < last {
						term *= divRe(qv, float64(k+1))
						partial += term
					}
				}
				e *= step
			}
		}
	}
}

// gridTailReal is gridTail's float64 mirror for purely real terms (see
// gridPDFReal for why the mirror is bit-identical).
func gridTailReal(t Term, x, h float64, n int, g []float64) {
	q := real(t.Pole)
	step := math.Exp(q * h)
	last := len(t.Coef) - 1
	if last == 0 {
		c := real(t.Coef[0])
		for i := 1; i < n; {
			e := math.Exp(-q * (x - h*float64(i)))
			end := i + expResetStride
			if end > n {
				end = n
			}
			for ; i < end; i++ {
				if e == 0 {
					i = end
					break
				}
				g[i] += c * e
				e *= step
			}
		}
		return
	}
	for i := 1; i < n; {
		e := math.Exp(-q * (x - h*float64(i)))
		end := i + expResetStride
		if end > n {
			end = n
		}
		for ; i < end; i++ {
			if e == 0 {
				i = end
				break
			}
			qv := q * (x - h*float64(i))
			term := e
			partial := term
			for k, c := range t.Coef {
				g[i] += real(c) * partial
				if k < last {
					term *= qv / float64(k+1)
					partial += term
				}
			}
			e *= step
		}
	}
}

// CDF returns TotalMass - Tail(x).
func (s Sum) CDF(x float64) float64 { return s.TotalMass() - s.Tail(x) }

// Quantile inverts the tail with a pooled workspace: Quantile(s, p, nil).
func (s Sum) Quantile(p float64) (float64, error) { return s.quantile(p, nil) }
