package mgf

import (
	"fmt"
	"math"
)

// This file owns quantile inversion for every law in the package: Mix and
// Sum both delegate here, so bracketing, seeding and convergence live in
// exactly one place.
//
// The inversion is a bracketed Newton iteration on g(x) = log(T(x)/(1-p)).
// Each iteration pays for one tail+density pass: the law returns T(x) and
// its density f(x) = -T'(x) from the same closed-form evaluation, so
// g'(x) = -f/T and the Newton step is x + g·T/f. The tail of every law here
// is asymptotically exponential, so g is near-linear past the bulk and
// Newton converges in a few passes from a start near the answer.
//
// Every pass narrows a live bracket [lo, hi] on the answer: a point with
// T > 1-p becomes lo, any other point hi (lo starts at 0, hi at +Inf). A
// Newton step that leaves (lo, hi) is replaced: by 2·lo while hi is still
// +Inf, otherwise by the secant step on g between the bracket ends, or by
// bisection when that leaves the bracket too. The iteration stops when a
// step moves x by less than tol·(1+x) and returns the step's end, kept in
// [lo, hi]; a law that has not converged in maxTailPasses passes is an
// ErrInvalid.
//
// A Sum's inversion starts from a seed found from its own factors. The
// factors are independent and non-negative, so P(U+W+P > x) >=
// max(P(U > x), P(W > x), P(P > x)), and any point at which a factor's
// tail is above the target lies below the answer. The seed is the highest
// rung mean·2^j at which one does, found with a few closed-form factor
// tails. A Mix starts at its mean. The start is a function of the law and
// the level alone, so an inversion carries no state from the previous one.

// maxTailPasses caps the tail+density passes of one inversion. A law
// whose inversion has not converged by then is an ErrInvalid; the laws of
// the scenario vocabulary take at most a handful (TestTailPassesPerInversion).
const maxTailPasses = 64

// maxSeedRung caps the factor walk of Sum.seed: 2^200 means away from the
// mean, far beyond any law with a finite tail.
const maxSeedRung = 200

// Quantile inverts the tail, starting at the factors' seed or the mean,
// whichever is larger.
func (s Sum) Quantile(p float64) (float64, error) {
	return invertTail(s.tailDensity, max(s.seed(p), s.Mean()), p, 1e-10)
}

// seed returns mean·2^j for the largest j >= 0 at which some factor's tail
// is still above 1-p, or 0 when no factor's is at the mean. P(U+W+P > x) is
// at least every factor's tail, so the Sum's tail is above 1-p there too
// and the seed lies below the Sum's p-quantile. Each factor's search
// resumes from the rung the previous factor reached, so a seed costs about
// j+3 factor tails.
func (s Sum) seed(p float64) float64 {
	step := s.Mean()
	if !(step > 0) {
		step = 1
	}
	target := 1 - p
	j := -1
	for _, f := range []Mix{s.u, s.w, s.p} {
		for j < maxSeedRung && f.Tail(math.Ldexp(step, j+1)) > target {
			j++
		}
	}
	if j < 0 {
		return 0
	}
	return math.Ldexp(step, j)
}

// invertTail returns the smallest x >= 0 with T(x) <= 1-p, for a monotone
// nonincreasing tail T. f returns T(x) and the density -T'(x); start is the
// first point tried (a non-positive or non-finite start falls back to 1),
// and tol the relative-plus-absolute convergence tolerance. A NaN or
// infinite tail value is an ErrInvalid: it compares as neither above nor
// under the target, so no bracket built on it means anything. A density
// that is not positive and finite costs only the Newton step of its pass.
func invertTail(f func(float64) (float64, float64), start, p, tol float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("%w: quantile level %g", ErrInvalid, p)
	}
	target := 1 - p
	t0, _ := f(0)
	if !finiteReal(t0) {
		return 0, fmt.Errorf("%w: tail %v at x=0", ErrInvalid, t0)
	}
	if t0 <= target {
		return 0, nil
	}
	logRatio := func(v float64) float64 {
		if v > 0 {
			return math.Log(v / target)
		}
		// Deep-tail underflow (or rounding below zero): certainly under
		// the target; a large finite value keeps the secant step NaN-free
		// where -Inf would poison it.
		return -745 - math.Log(target)
	}
	lo, glo := 0.0, logRatio(t0)
	hi, ghi := math.Inf(1), 0.0
	x := start
	if !(x > 0 && x < math.Inf(1)) {
		x = 1
	}
	for range maxTailPasses {
		v, d := f(x)
		if !finiteReal(v) {
			return 0, fmt.Errorf("%w: tail %v at x=%g", ErrInvalid, v, x)
		}
		g := logRatio(v)
		if g > 0 {
			lo, glo = x, g
		} else {
			hi, ghi = x, g
		}
		next := x + g*v/d
		newton := v > 0 && d > 0 && !math.IsInf(d, 1)
		if newton && math.Abs(next-x) < tol*(1+x) {
			// Converged. The step may end on x itself, a bracket end,
			// when g rounds to zero there, or past one when the answer
			// is at it: at lo = 0 where the law's mass beyond 0 is 1-p
			// up to rounding. The answer lies in [lo, hi].
			return min(max(next, lo), hi), nil
		}
		if !(newton && next > lo && next < hi) {
			if math.IsInf(hi, 1) {
				// No upper end yet: double, and do not take the
				// step's size for convergence.
				x = 2 * lo
				continue
			}
			if next = hi - ghi*(hi-lo)/(ghi-glo); !(next > lo && next < hi) {
				next = lo + (hi-lo)/2
			}
			if math.Abs(next-x) < tol*(1+x) {
				return next, nil
			}
		}
		x = next
	}
	return 0, fmt.Errorf("%w: no convergence in %d tail passes", ErrInvalid, maxTailPasses)
}

// finiteReal reports whether v is neither NaN nor infinite.
func finiteReal(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
