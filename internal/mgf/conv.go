package mgf

import (
	"fmt"
	"math"
	"math/cmplx"
)

// The queueing delay of eq. (35) is the sum U+W+P of three independent
// factors: the upstream wait U and the burst wait W, each an atom plus
// simple poles, and the in-burst position P, the uniform Erlang ladder of
// eq. (34) at the burst rate beta. Expanding the product by partial
// fractions is exact in exact arithmetic but ill-conditioned in float64: at
// low downstream load the D/E_K/1 poles alpha_j = beta(1-zeta_j) crowd
// beta, and the partial fractions amplify rounding like (|p|/|p-q|)^order.
//
// Sum keeps the three factors apart and evaluates the tail in closed form.
// With Q_m the Poisson(beta x) tail below m, and for a pole z
//
//	psi_m(z) = e^{-beta x} (beta x)^m phi_m((beta - z) x),
//	phi_m(w) = sum_k w^k/(k+m)!,
//
// one has P(Exp(z) + Erlang(m, beta) > x) = Q_m + psi_m(z), and for a U pole
// a and a W pole b
//
//	P(Exp(a) + Exp(b) + Erlang(m, beta) > x) = Q_m + psi_m(a) - a [a,b]psi_m,
//
// where [a,b] is the divided difference in the pole. Both are confluent
// divided differences of e^{-lambda x} over crowding nodes, computed
// accurately through the phi-function recurrence phi_{m+1}(w) =
// (phi_m(w) - 1/m!)/w (McCurdy, Ng & Parlett, Math. Comp. 1984): forward
// where it is stable (|w| >= m, or |1 - z/beta| >= 1), otherwise backward
// from the phi_M series. No exponential of a growing argument is ever
// formed, so deep tails stay finite, and no grid, cache or scratch outlives
// one evaluation.

// Sum is the law of U+W+P for independent U, W and P: U and W are an atom
// plus simple poles, P is the position law of eq. (34), the uniform ladder
// (1/(K-1)) sum_{m=1..K-1} Erlang(m, beta), which has no atom. Build one
// with NewSum. Tail is closed form and allocation-free for ladders of up to
// stackOrders orders and one U pole.
type Sum struct {
	u, w, p Mix
	beta    float64
	// n is the ladder length K: orders 0..K-1, each order m >= 1 of
	// weight pim = pi_m = 1/(K-1); order 0 has weight 0, as P has no atom.
	n            int
	pim          float64
	massU, massW float64
}

// NewSum returns the law of U+W+P with P the eq. (34) ladder of order k at
// rate beta, or ErrInvalid when a factor has another shape: a U or W term
// of Erlang order above 1 or with a pole off the open right half plane, a
// Pair term in U, or k < 2 (K = 1 has a branch point, eq. 33) or beta not a
// positive rate. W may fold its conjugate pairs; U may not, because Tail
// folds each W pair's U×W cross terms, which is exact only while every U
// term is stored (see tailDensity).
func NewSum(u, w Mix, k int, beta float64) (Sum, error) {
	for _, f := range []struct {
		name string
		m    Mix
	}{{"U", u}, {"W", w}} {
		for _, t := range f.m.Terms {
			if len(t.Coef) != 1 || !(real(t.Pole) > 0) || !finite(t.Pole) || !finite(t.Coef[0]) {
				return Sum{}, fmt.Errorf("%w: %s term %v is not a simple pole", ErrInvalid, f.name, t)
			}
			if t.Pair && f.name == "U" {
				return Sum{}, fmt.Errorf("%w: U term %v is a folded conjugate pair", ErrInvalid, t)
			}
		}
	}
	if k < 2 {
		return Sum{}, fmt.Errorf("%w: uniform position law needs K >= 2 (got %d); see eq. (33)", ErrInvalid, k)
	}
	if !(beta > 0) || math.IsInf(beta, 0) {
		return Sum{}, fmt.Errorf("%w: position rate %v is not a positive rate", ErrInvalid, beta)
	}
	return Sum{u: u, w: w, p: positionLaw(k, beta), beta: beta, n: k, pim: 1 / float64(k-1),
		massU: u.TotalMass(), massW: w.TotalMass()}, nil
}

// positionLaw returns the packet-position delay of eq. (34) for a packet
// uniformly placed in an Erlang(k, beta) burst, P(s) = (1/(k-1))
// sum_{m=1..k-1} (beta/(beta-s))^m: one ladder, a probability law by
// construction for k >= 2 and beta > 0, so it is not validated.
func positionLaw(k int, beta float64) Mix {
	coef := make([]complex128, k-1)
	w := complex(1/float64(k-1), 0)
	for i := range coef {
		coef[i] = w
	}
	return Mix{Terms: []Term{{Pole: complex(beta, 0), Coef: coef}}}
}

func finite(z complex128) bool { return !cmplx.IsNaN(z) && !cmplx.IsInf(z) }

// Factors returns U, W and P.
func (s Sum) Factors() (u, w, p Mix) { return s.u, s.w, s.p }

// Mean returns E[U+W+P].
func (s Sum) Mean() float64 { return s.u.Mean() + s.w.Mean() + s.p.Mean() }

// TotalMass returns the product of the factor masses.
func (s Sum) TotalMass() float64 { return s.massU * s.massW * s.p.TotalMass() }

// stackOrders bounds the ladder length Tail keeps on the stack.
const stackOrders = 32

// Tail returns P(U+W+P > x). Summing over which factor components are
// present, with C and D the masses of U and W, c_i, a_i the U terms and
// d_j, b_j the W terms:
//
//	sum_{m>=1} pi_m [ C D Q_m + D sum_i c_i psi_m(a_i) + U.Atom sum_j d_j psi_m(b_j)
//	                  - sum_ij c_i d_j a_i [a_i,b_j]psi_m ].
func (s Sum) Tail(x float64) float64 {
	t, _ := s.tailDensity(x)
	return t
}

// tailDensity returns Tail(x) and the density of U+W+P at x > 0, from one
// pass: the density is formed from the ladders Tail already sums. With
// dQ_m/dx = -beta pw_{m-1}, d/dx psi_m(z) = -z psi_m(z) + beta pw_{m-1} and
// d/dx [a,b]psi_m = -a [a,b]psi_m - psi_m(b), the derivative of each term
// of Tail gives
//
//	-f = -B C D + sum_i D c_i (B - a_i L(a_i))
//	     + sum_j d_j [ U.Atom (B - b_j L(b_j)) + sum_i c_i a_i (a_i D_ij + L(b_j)) ],
//
// with B = beta sum_{m>=1} pi_m pw_{m-1}, L(z) = sum_{m>=1} pi_m psi_m(z)
// and D_ij = sum_{m>=1} pi_m [a_i,b_j]psi_m. P has no atom, so U+W+P has
// none: at x <= 0 the tail is the total mass and the density returned is 0.
//
// A W Pair term stands for b_j and its conjugate. With every U term stored
// (U is closed under conjugation as a set), the conjugate's summand is the
// conjugate of b_j's, so the pair adds 2·Re of b_j's summand (Term.fold).
func (s Sum) tailDensity(x float64) (tail, density float64) {
	if x <= 0 {
		return s.TotalMass(), 0
	}
	n := s.n
	nu := len(s.u.Terms)
	var fstack [2 * stackOrders]float64
	var cstack [3 * stackOrders]complex128
	fs, cs := fstack[:], cstack[:]
	if 2*n > len(fs) {
		fs = make([]float64, 2*n)
	}
	if (nu+1)*n > len(cs) {
		cs = make([]complex128, (nu+1)*n)
	}
	pw, q := fs[:n], fs[n:2*n]
	poisson(pw, q, s.beta*x)

	var base, b float64
	for m := 1; m < n; m++ {
		base += s.pim * q[m]
		b += s.pim * pw[m-1]
	}
	b *= s.beta
	bc := complex(b, 0)
	cd := s.massU * s.massW
	t := complex(cd*base, 0)
	f := complex(cd*b, 0) // the density, -T'
	psiU := cs[:nu*n]
	for i, tu := range s.u.Terms {
		pu := psiU[i*n : (i+1)*n]
		psi(pu, tu.Pole, s.beta, x, pw)
		l := s.ladder(pu)
		c := complex(s.massW, 0) * tu.Coef[0]
		t += c * l
		f -= c * (bc - tu.Pole*l)
	}
	pb := cs[nu*n : (nu+1)*n]
	for _, tw := range s.w.Terms {
		psi(pb, tw.Pole, s.beta, x, pw)
		l := s.ladder(pb)
		u0 := complex(s.u.Atom, 0)
		acc := u0 * l
		dacc := u0 * (bc - tw.Pole*l)
		for i, tu := range s.u.Terms {
			ca := tu.Coef[0] * tu.Pole
			dd := s.divDiff(tu.Pole, tw.Pole, psiU[i*n:(i+1)*n], pb, x, pw)
			acc -= ca * dd
			dacc += ca * (tu.Pole*dd + l)
		}
		t += tw.fold(tw.Coef[0] * acc)
		f -= tw.fold(tw.Coef[0] * dacc)
	}
	return real(t), real(f)
}

// ladder returns sum_{m>=1} pi_m v_m.
func (s Sum) ladder(v []complex128) complex128 {
	var re, im float64
	for _, z := range v[1:] {
		re += s.pim * real(z)
		im += s.pim * imag(z)
	}
	return complex(re, im)
}

// poisson fills pw[m] = e^{-bx} bx^m/m! and q[m] = sum_{r<m} pw[r]. Past
// bx = 700 e^{-bx} underflows, so each weight is formed in log space.
func poisson(pw, q []float64, bx float64) {
	if bx <= 700 {
		p := math.Exp(-bx)
		for m := range pw {
			pw[m] = p
			p *= bx / float64(m+1)
		}
	} else {
		lb := math.Log(bx)
		for m := range pw {
			lg, _ := math.Lgamma(float64(m + 1))
			pw[m] = math.Exp(-bx + float64(m)*lb - lg)
		}
	}
	acc := 0.0
	for m := range q {
		q[m] = acc
		acc += pw[m]
	}
}

// abs2 returns |z|^2.
func abs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// inv returns 1/z.
func inv(z complex128) complex128 {
	d := abs2(z)
	return complex(real(z)/d, -imag(z)/d)
}

// scale returns z*f for a real f.
func scale(z complex128, f float64) complex128 { return complex(real(z)*f, imag(z)*f) }

// forwardTop returns the last order the phi recurrence may run forward to
// for the node w = (beta-z)x: all of them when |1 - z/beta| >= 1, else the
// orders up to |w|, past which the forward step loses accuracy.
func forwardTop(w, zeta complex128, top int) int {
	if a := math.Sqrt(abs2(w)); abs2(zeta) < 1 && a < float64(top) {
		return int(a)
	}
	return top
}

// psi fills out[m] = psi_m(z) for m = 0..len(out)-1, given the Poisson
// weights pw at beta*x. The recurrence psi_{m+1} = beta/(beta-z) (psi_m -
// pw_m) runs forward from psi_0 = e^{-zx}; above forwardTop the orders come
// backward, psi_m = (1 - z/beta) psi_{m+1} + pw_m, from the phi series at
// the top order.
func psi(out []complex128, z complex128, beta, x float64, pw []float64) {
	top := len(out) - 1
	d := complex(beta, 0) - z
	w := scale(d, x)
	zeta := scale(d, 1/beta)
	m0 := forwardTop(w, zeta, top)
	out[0] = cmplx.Exp(scale(-z, x))
	if m0 > 0 {
		r := scale(inv(d), beta)
		for m := 0; m < m0; m++ {
			out[m+1] = r * (out[m] - complex(pw[m], 0))
		}
	}
	if m0 == top {
		return
	}
	out[top] = scale(phiSeries(w, top), pw[top])
	for m := top - 1; m > m0; m-- {
		out[m] = zeta*out[m+1] + complex(pw[m], 0)
	}
}

// seriesEps is the relative size at which a series term stops mattering.
const seriesEps = 1e-17

// phiSeries returns M! phi_M(w) = sum_k w^k M!/(k+M)! for |w| < M+1.
func phiSeries(w complex128, top int) complex128 {
	sum, t := complex(1, 0), complex(1, 0)
	for k := 1; k < 10000; k++ {
		t = scale(t*w, 1/float64(k+top))
		sum += t
		if abs2(t) <= seriesEps*seriesEps*abs2(sum) {
			break
		}
	}
	return sum
}

// divDiff returns sum_{m>=1} pi_m delta_m for delta_m = [a,b]psi_m, the
// divided difference over the poles a and b, given psi(a) and psi(b) in pa
// and pb. Differencing the psi recurrence gives the same recurrence for
// delta with psi of the other pole as its inhomogeneous term: around the
// node a with the larger |beta-a| (the poles swap roles when b's is larger),
//
//	delta_{m+1} = beta/(beta-a) (delta_m + psi_{m+1}(b)/beta),
//
// forward from delta_0 = [a,b]e^{-zx} (a phi_1) up to forwardTop, and
// backward from the series of [w_a,w_b]phi_M above it.
func (s Sum) divDiff(a, b complex128, pa, pb []complex128, x float64, pw []float64) complex128 {
	beta := s.beta
	da, db := complex(beta, 0)-a, complex(beta, 0)-b
	if abs2(db) > abs2(da) { // delta is symmetric in a and b
		da, db, pb = db, da, pa
	}
	top := len(pb) - 1
	wa := scale(da, x)
	zeta := scale(da, 1/beta)
	m0 := forwardTop(wa, zeta, top)
	ib := 1 / beta

	d := expDivDiff(a, b, x)
	var sum complex128
	if m0 > 0 {
		r := scale(inv(da), beta)
		for m := 0; m < m0; m++ {
			d = r * (d + scale(pb[m+1], ib))
			sum += scale(d, s.pim)
		}
	}
	if m0 == top {
		return sum
	}
	d = scale(ddSeries(wa, scale(db, x), top), -x*pw[top])
	sum += scale(d, s.pim)
	for m := top - 1; m > m0; m-- {
		d = zeta*d - scale(pb[m+1], ib)
		sum += scale(d, s.pim)
	}
	return sum
}

// expDivDiff returns [a,b]e^{-zx} = (e^{-bx} - e^{-ax})/(b-a), through
// -x e^{-ax} phi_1((a-b)x) when the poles are close on the scale 1/x.
func expDivDiff(a, b complex128, x float64) complex128 {
	u := scale(a-b, x)
	if abs2(u) >= 1 {
		return (cmplx.Exp(scale(-b, x)) - cmplx.Exp(scale(-a, x))) * inv(b-a)
	}
	phi1 := complex(1, 0)
	if u != 0 {
		re, im := real(u), imag(u)
		sh := math.Sin(im / 2)
		em1 := complex(math.Expm1(re)*math.Cos(im)-2*sh*sh, math.Exp(re)*math.Sin(im))
		phi1 = em1 * inv(u)
	}
	return scale(cmplx.Exp(scale(-a, x))*phi1, -x)
}

// ddSeries returns M! [w1,w2]phi_M = sum_{k>=0} h_k(w1,w2) M!/(k+1+M)!,
// with h_k = sum_{i+j=k} w1^i w2^j, for |w2| <= |w1| < M+1. The terms are
// carried scaled by their factorials, as h_k alone overflows for large M.
// The stopping test bounds the remaining terms through |h_k| <= (k+1)|w1|^k,
// so a term that cancels to zero cannot end the series early.
func ddSeries(w1, w2 complex128, top int) complex128 {
	c := 1 / float64(top+1)
	h, p2 := complex(c, 0), complex(c, 0) // h_k and w2^k, times M!/(k+1+M)!
	sum := h
	r := math.Sqrt(abs2(w1))
	bound := c
	for k := 1; k < 10000; k++ {
		f := 1 / float64(k+top+1)
		p2 = scale(p2*w2, f)
		h = scale(h*w1, f) + p2
		sum += h
		bound *= r * float64(k+1) / float64(k) * f
		if bound <= seriesEps*math.Sqrt(abs2(sum)) {
			break
		}
	}
	return sum
}
