package xmath

import "math"

// Seed canonicalization for Newton root solvers.
//
// A Newton iteration converges to the true root up to the last couple of
// bits, but WHICH last-bit neighbour it lands on depends on where it
// started. Two solves that start differently — say from a converged
// fixed-point iteration and from its first iterate — therefore agree to
// ~1e-15 but not bit for bit, and any downstream arithmetic amplifies that
// into visibly different (if equally correct) outputs.
//
// SnapSeed erases the path dependence: round the converged value to a grid
// coarse enough (26 significant bits, ~1.5e-8 relative spacing) that both
// paths' results round to the same grid point, then re-run the identical
// polish from that shared seed. The final Newton iterates are a
// deterministic function of (seed, parameters), so both paths reproduce the
// same bits — the snap selects a canonical seed, the re-polish restores full
// precision. The residual of the snapped-and-repolished root is checked by
// by the caller exactly as for an unsnapped solve, so canonicalization can
// change only which last-bit neighbour of the root is reported, never its
// accuracy.
//
// The grid is relative (mantissa rounding), so it works at any scale. The
// one failure mode is a converged value within ~1e-15 of a grid boundary,
// where the two paths could round to different grid points; with a 2^-26
// grid and 2^-52-scale discrepancies the odds are ~2^-26 per root, and the
// consequence is a one-ulp-level difference.

// snapBits is the number of significant bits SnapSeed keeps.
const snapBits = 26

// SnapSeed rounds x to snapBits significant bits (round half away from
// zero). Zeros, infinities and NaNs pass through unchanged.
func SnapSeed(x float64) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	bits := math.Float64bits(x)
	// Round at bit 52-snapBits of the mantissa: adding the half-ulp-of-grid
	// carries into the exponent when the mantissa overflows, which is still
	// the correctly rounded next binade.
	bits += 1 << (52 - snapBits - 1)
	bits &^= 1<<(52-snapBits) - 1
	out := math.Float64frombits(bits)
	if math.IsInf(out, 0) {
		return x // rounding overflowed past MaxFloat64; keep the input
	}
	return out
}

// snapZeroTol flushes a component that is pure rounding noise relative to
// the other (|small| < 2^-40 |large|) to exactly zero. A mathematically real
// root reached through complex arithmetic — e.g. the negative-axis branch of
// the D/E_K/1 root map for even K, whose phase factor e^{i*pi} carries
// sin(pi) ~ 1e-16 — keeps a seed-dependent imaginary residue of relative
// size ~eps that Newton cannot contract below its own stopping threshold.
// Relative mantissa rounding cannot canonicalize such a component (the noise
// IS its leading bits), so it is flushed instead: 2^-40 sits far above
// eps-scale noise and far below the smallest genuine component a
// conjugate-pair root carries. Flushing a genuine-but-tiny component would
// only move the seed, not the answer: the re-polish still converges from it,
// identically on every path.
const snapZeroTol = 0x1p-40

// SnapSeedC rounds both components of z to snapBits significant bits,
// flushing a component that is rounding noise relative to the other to zero
// (see snapZeroTol).
func SnapSeedC(z complex128) complex128 {
	re, im := real(z), imag(z)
	if math.Abs(im) < snapZeroTol*math.Abs(re) {
		im = 0
	} else if math.Abs(re) < snapZeroTol*math.Abs(im) {
		re = 0
	}
	return complex(SnapSeed(re), SnapSeed(im))
}
