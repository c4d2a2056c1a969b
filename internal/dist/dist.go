// Package dist provides the probability laws the ping-time model composes:
// the deterministic, extreme-value (Gumbel), Erlang and lognormal components
// the paper fits to FPS traffic (§2), plus the exponential, uniform, normal
// and finite-mixture laws the validators and extensions need.
//
// Every law implements Distribution - analytic moments, CDF and
// reproducible sampling on a math/rand/v2 generator - so the queueing
// solvers can be cross-checked against simulation draw for draw.
package dist

import (
	"math"
	"math/rand/v2"
)

// EulerGamma is the Euler-Mascheroni constant: the Gumbel law Ext(a, b) has
// mean a + EulerGamma*b.
const EulerGamma = 0.5772156649015328606065120900824024310421593359399235988

// Distribution is a one-dimensional probability law with analytic moments.
type Distribution interface {
	// Sample draws one value using the given generator.
	Sample(r *rand.Rand) float64
	// Mean returns the expectation E[X].
	Mean() float64
	// Var returns the variance Var[X].
	Var() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
}

// splitmix64 is the seed mixer behind NewRNG and SplitSeed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitSeed derives an independent child seed from a base seed and a stream
// path (shard index, replica index, ...). The same (seed, stream) always maps
// to the same child, and distinct streams give decorrelated generators, so
// parallel jobs can each seed their own RNG and produce output independent of
// worker count or execution order.
func SplitSeed(seed uint64, stream ...uint64) uint64 {
	for i, w := range stream {
		seed = splitmix64(seed ^ splitmix64(w+uint64(i)*0xd1342543de82ef95))
	}
	return seed
}

// NewRNG returns a reproducible generator: the same seed always yields the
// same stream, independent of process or platform (PCG from math/rand/v2).
// Optional stream words split the seed SplitSeed-style, giving each parallel
// job (shard, replica, curve...) its own decorrelated generator: NewRNG(seed)
// and NewRNG(seed, jobIndex) never share a stream.
func NewRNG(seed uint64, stream ...uint64) *rand.Rand {
	seed = SplitSeed(seed, stream...)
	return rand.New(rand.NewPCG(splitmix64(seed), splitmix64(seed^0xdeadbeefcafef00d)))
}

// SampleN draws n independent values from d.
func SampleN(d Distribution, r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

// StdDev returns the standard deviation sqrt(Var[X]).
func StdDev(d Distribution) float64 { return math.Sqrt(d.Var()) }

// CoV returns the coefficient of variation StdDev/Mean (0 for degenerate
// laws, +/-Inf when the mean is zero with positive variance).
func CoV(d Distribution) float64 {
	sd := StdDev(d)
	if sd == 0 {
		return 0
	}
	return sd / d.Mean()
}
