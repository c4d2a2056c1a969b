package queueing

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Both wait laws take their poles from roots of the same shape. The D/E_K/1
// roots solve eq. (26), z = g_k(z) = exp((z-1)/rho + 2*pi*i*(k-1)/K). The
// M/E_K/1 roots solve (z+a)(1-z)^K = a, which in u = 1-z reads
// u = g_k(u) = omega_k (a/(1+a-u))^{1/K} with omega_k = e^{2*pi*i*(k-1)/K}.
// Each branch k = 1..K of the map has exactly one root in Re z < 1, and the
// roots come in conjugate pairs, g_{K+2-k}(conj z) = conj g_k(z). So both
// queues solve the branches k <= floor(K/2)+1, each by one Newton polish
// seeded with g_k(0) (solveBranch), and mirror the others.

// branchMap is the map g_k of one branch: it returns g_k(z) and g_k'(z).
type branchMap func(z complex128) (g, dg complex128)

// rootResidualTol is the acceptance threshold on |z - g_k(z)|: a converged
// root sits at machine precision (~1e-16), so 1e-10 flags genuine
// misconvergence without tripping on rounding.
const rootResidualTol = 1e-10

// maxPolishSteps caps one Newton polish. From the g_k(0) seed a polish
// takes a handful of steps; the cap only bounds a seed it diverges from.
const maxPolishSteps = 50

// solvedRoots returns the number of roots a solve solves, floor(K/2)+1: the
// real root of branch 1, one member of each conjugate pair and, for even K,
// the real root of branch K/2+1. The others are mirrored.
func solvedRoots(k int) int { return k/2 + 1 }

// polish runs Newton's method on h(z) = z - g(z) from z. It stops when a
// step is below 1e-16(1+|z|), or no shorter than the step before it: there
// rounding, not the distance to the root, sets the step. The iterates are
// a deterministic function of (g, z).
func polish(g branchMap, z complex128) complex128 {
	prev := math.Inf(1)
	for range maxPolishSteps {
		gz, dg := g(z)
		dh := 1 - dg
		if dh == 0 {
			break
		}
		step := (z - gz) / dh
		z -= step
		s := cmplx.Abs(step)
		if s < 1e-16*(1+cmplx.Abs(z)) || !(s < prev) {
			break
		}
		prev = s
	}
	return z
}

// finishRoot polishes the root of branch k of the K-branch map g from z and
// checks it (checkRoot). Branches with a mathematically real root, k = 1
// (phase 0) and, for even K, k = K/2+1 (phase pi, the negative real axis),
// pick up imaginary rounding dust of size ~eps*|z| from sin(pi) inside
// cmplx.Exp that Newton cannot contract below its stopping threshold. It is
// flushed, so the stored root is exactly real, as the conjugate symmetry
// requires; checkRoot judges the flushed value.
func finishRoot(k, K int, g branchMap, z complex128) (complex128, error) {
	z = polish(g, z)
	if k == 1 || 2*(k-1) == K {
		z = complex(real(z), 0)
	}
	return checkRoot(k, g, z)
}

// checkRoot returns z if it is branch k's root of g: its residual is below
// rootResidualTol and it lies in Re z < 1, where each branch has its one
// root, so a seed the polish diverged from fails. Negated-form comparisons
// make a NaN residual or component fail validation rather than slip past
// it.
func checkRoot(k int, g branchMap, z complex128) (complex128, error) {
	gz, _ := g(z)
	if res := cmplx.Abs(z - gz); !(res <= rootResidualTol) {
		return 0, fmt.Errorf("root %d residual %g", k, res)
	}
	if !(real(z) < 1) {
		return 0, fmt.Errorf("root %d = %v outside Re z < 1", k, z)
	}
	return z, nil
}

// solveBranch returns the root of branch k of the K-branch map g, polished
// from g_k(0) (finishRoot). The fixed-point iteration from 0 that g_k(0)
// starts converges to the branch's root only at rate |g_k'|, which tends to
// 1 near saturation; Newton from its first iterate takes a few steps.
func solveBranch(k, K int, g branchMap) (complex128, error) {
	seed, _ := g(0)
	return finishRoot(k, K, g, seed)
}
