package mgf

import (
	"fmt"
	"math"

	"fpsping/internal/xmath"
)

// This file owns quantile inversion for every law in the package: Mix and
// Sum both delegate here, so bracketing, seeding and convergence live in
// exactly one place. The solver splits the work into two stages with very
// different reuse properties:
//
//  1. a bracket stage that locates the law's CANONICAL dyadic bracket: with
//     step = mean, the smallest k >= 0 with Tail(step·2^k) <= target, giving
//     [step·2^(k-1), step·2^k] (k = 0 means [0, step]). The bracket is a
//     function of the law and the target alone — not of the rung the walk
//     that found k started from — which is what makes seeding exact;
//  2. a refinement stage that runs Brent's method on log(Tail(x)/target)
//     inside the bracket. The tail of every law here is asymptotically
//     exponential, so the log-ratio is near-linear and Brent's secant and
//     inverse-quadratic steps converge in a handful of evaluations where
//     blind bisection needed dozens.
//
// A Sum's inversion seeds the stage-1 walk from its own factors. The
// factors are independent and non-negative, so P(U+W+P > x) >=
// max(P(U > x), P(W > x), P(P > x)), and any rung at which a factor's tail
// is above the target lies below the answer. The seed is the highest such
// rung, found with a few closed-form factor tails, and the walk starts there
// instead of at rung 0. A Mix starts at rung 0. The seed is a function of
// the law and the level alone, so an inversion carries no state from the
// previous one. Whatever rung the walk starts at, stage 2 sees the same
// bracket and the same endpoint values: a seed changes how much work is
// done, never what is computed.

// maxDoubling caps the dyadic bracket search: 2^200 means away from the
// mean, far beyond any law with a finite tail.
const maxDoubling = 200

// Quantile inverts the tail, starting the bracket walk at the factors' seed.
func (s Sum) Quantile(p float64) (float64, error) {
	return invertTail(s.Tail, s.Mean(), p, 1e-10, s.seed(p))
}

// seed returns the rung of the Sum's own ladder (step = mean, as in
// invertTail) the bracket walk starts from: step·2^j for the largest j >= 0
// at which some factor's tail is still above 1-p, or 0 when no factor's is
// at rung 0. P(U+W+P > x) is at least every factor's tail, so the Sum's
// tail is above 1-p there too and the rung lies below the Sum's p-quantile.
// Each factor's search resumes from the rung the previous factor reached,
// so a seed costs about j+3 factor tails.
func (s Sum) seed(p float64) float64 {
	step := s.Mean()
	if !(step > 0) {
		step = 1
	}
	target := 1 - p
	j := -1
	for _, f := range []Mix{s.u, s.w, s.p} {
		for j < maxDoubling && f.Tail(math.Ldexp(step, j+1)) > target {
			j++
		}
	}
	if j < 0 {
		return 0
	}
	return math.Ldexp(step, j)
}

// invertTail returns the smallest x >= 0 with Tail(x) <= 1-p, for a
// monotone nonincreasing tail function. mean seeds the dyadic bracket
// (non-positive values fall back to 1, matching the historical behavior),
// tol is the absolute-plus-relative convergence tolerance, and seed, when
// positive, is a lower bound on the answer that sets the walk's first rung
// (non-positive means rung 0). A NaN or infinite tail value is an
// ErrInvalid: it compares as neither above nor under the target, so no
// bracket built on it means anything.
func invertTail(f func(float64) float64, mean, p, tol, seed float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("%w: quantile level %g", ErrInvalid, p)
	}
	var bad error // the first non-finite tail value
	tail := func(x float64) float64 {
		v := f(x)
		if bad == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			bad = fmt.Errorf("%w: tail %v at x=%g", ErrInvalid, v, x)
		}
		return v
	}
	target := 1 - p
	if v := tail(0); bad != nil {
		return 0, bad
	} else if v <= target {
		return 0, nil
	}
	step := mean
	if !(step > 0) {
		step = 1
	}
	rung := func(j int) float64 { return math.Ldexp(step, j) } // step·2^j, exact

	// Stage 1: find the canonical k — the smallest j >= 0 with
	// Tail(rung(j)) <= target — walking one rung at a time from j0, the
	// seed's rung (0 without a seed above step). Rung values the walk
	// evaluates next to k are kept so stage 2 does not re-evaluate its
	// endpoints.
	j0 := 0
	if seed > step {
		j0 = int(min(math.Floor(math.Log2(seed/step)), maxDoubling))
	}
	k := -1
	var vlo, vhi float64 // tail at rung(k-1) (or 0), rung(k)
	vloOK := false
	v0 := tail(rung(j0))
	if bad != nil {
		return 0, bad
	}
	if v0 > target {
		// Walk up to the first rung at or under the target.
		prev := v0
		for j := j0 + 1; j <= maxDoubling; j++ {
			v := tail(rung(j))
			if bad != nil {
				return 0, bad
			}
			if v <= target {
				k, vhi = j, v
				vlo, vloOK = prev, true
				break
			}
			prev = v
		}
		if k < 0 {
			return 0, fmt.Errorf("%w: tail does not reach %g", ErrInvalid, target)
		}
	} else {
		// Walk down to the last rung above the target; k is one past it.
		k, vhi = j0, v0
		for j := j0 - 1; j >= 0; j-- {
			v := tail(rung(j))
			if bad != nil {
				return 0, bad
			}
			if v > target {
				vlo, vloOK = v, true
				break
			}
			k, vhi = j, v
		}
	}
	var lo, hi float64
	hi = rung(k)
	if k > 0 {
		lo = rung(k - 1)
	}
	if !vloOK {
		vlo = tail(lo) // tail(0) when k == 0
	}
	if bad != nil {
		return 0, bad
	}

	// Stage 2: Brent on the log-ratio inside [lo, hi]. The bracket and its
	// endpoint values are the canonical ones whatever j0 was, so the
	// iterates — and the root — are bit-identical with or without a seed.
	logRatio := func(v float64) float64 {
		if v > 0 {
			return math.Log(v / target)
		}
		// Deep-tail underflow (or rounding below zero): certainly under
		// the target; a large finite value keeps Brent's arithmetic
		// NaN-free where -Inf would poison the interpolation steps.
		return -745 - math.Log(target)
	}
	g := func(x float64) float64 {
		v := tail(x)
		if bad != nil {
			return 0 // a zero ends Brent at once; the error is returned below
		}
		return logRatio(v)
	}
	x, err := xmath.BrentBracketed(g, lo, hi, logRatio(vlo), logRatio(vhi), tol*(1+hi))
	if bad != nil {
		return 0, bad
	}
	if err != nil {
		// vlo <= target can only mean the tail is not monotone at the
		// bracket scale; surface it rather than guessing.
		return 0, fmt.Errorf("%w: tail not monotone near %g", ErrInvalid, lo)
	}
	return x, nil
}
