package queueing

import (
	"fmt"
	"math"
	"math/cmplx"

	"fpsping/internal/mgf"
)

// MEK1 is the M/E_K/1 queue: Poisson arrivals at rate Lambda, Erlang(K,
// Beta) service. §3.2 points out that when bursts from *several* game
// servers share the reserved downstream pipe, the N*D/G/1 superposition "is
// very well approximated by M/G/1"; with Erlang burst work that limit is
// exactly this queue, and its waiting-time MGF is rational, so it expands in
// the same Erlang-term algebra as the D/E_K/1 solution:
//
//	W(s) = (1-rho) (beta-s)^K / Q(s),
//
// where s*Q(s) = (s+lambda)(beta-s)^K - lambda*beta^K (Pollaczek-Khinchine).
type MEK1 struct {
	Lambda float64 // arrival rate, 1/s
	K      int     // Erlang order of the service
	Beta   float64 // Erlang rate of the service, 1/s
}

// NewMEK1 validates parameters and stability.
func NewMEK1(lambda float64, k int, beta float64) (MEK1, error) {
	if !(lambda > 0) || k < 1 || !(beta > 0) {
		return MEK1{}, fmt.Errorf("%w: lambda=%g K=%d beta=%g", ErrBadParam, lambda, k, beta)
	}
	q := MEK1{Lambda: lambda, K: k, Beta: beta}
	if q.Load() >= 1 {
		return MEK1{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Load())
	}
	return q, nil
}

// String summarizes the queue.
func (q MEK1) String() string { return fmt.Sprintf("M/E%d/1(rho=%.3g)", q.K, q.Load()) }

// MeanService returns K/Beta.
func (q MEK1) MeanService() float64 { return float64(q.K) / q.Beta }

// Load returns rho = Lambda*K/Beta.
func (q MEK1) Load() float64 { return q.Lambda * q.MeanService() }

// rootMap returns the map of branch k (1-based) of the waiting-time
// denominator's roots in u = 1 - z, z = s/beta the scaled pole:
// (z+a)(1-z)^K = a, a = lambda/beta, reads u^K (1+a-u) = a, whose roots
// other than u = 1 (the cancelled z = 0) solve
//
//	u = g_k(u) = omega_k (a/(1+a-u))^{1/K},  omega_k = e^{2*pi*i*(k-1)/K},
//
// one per branch in Re u < 1, with g_k'(u) = g_k(u)/(K(1+a-u)). Working in
// the scaled variable keeps every quantity O(1), where the raw denominator
// carries beta^K ~ 1e19 factors.
func (q MEK1) rootMap(k int) branchMap {
	a := complex(q.Lambda/q.Beta, 0)
	kk := complex(float64(q.K), 0)
	phase := complex(0, 2*math.Pi*float64(k-1)/float64(q.K))
	return func(u complex128) (complex128, complex128) {
		w := a + (1 - u) // 1+a-u, exact where u is near 1
		g := cmplx.Exp(cmplx.Log(a/w)/kk + phase)
		return g, g / (kk * w)
	}
}

// MEK1Solution is the one-shot root solve of the scaled waiting-time
// denominator, from which the waiting-time law derives without re-running
// the solve. Solve is the entry point.
type MEK1Solution struct {
	q  MEK1
	us []complex128 // u_k = 1 - z_k of branches k <= floor(K/2)+1, at index k-1
}

// Solve solves the branches k <= floor(K/2)+1 of the scaled denominator's
// roots (rootMap), each by one Newton polish seeded with g_k(0), as
// DEK1.Solve does; the other roots are their conjugates. Every stored root
// passes the residual check and lies in Re z > 0. WaitMix on the solution
// is pure arithmetic over the stored roots.
func (q MEK1) Solve() (*MEK1Solution, error) {
	us := make([]complex128, solvedRoots(q.K))
	for k := range us {
		var err error
		if us[k], err = solveBranch(k+1, q.K, q.rootMap(k+1)); err != nil {
			return nil, fmt.Errorf("queueing: M/E%d/1 (rho=%g): %w", q.K, q.Load(), err)
		}
	}
	return &MEK1Solution{q: q, us: us}, nil
}

// WaitMix returns the exact waiting-time law as an Erlang-term mix,
// W(s) = (1-rho) + sum_i c_i p_i/(p_i - s), one term per solved root and
// conjugate pair (mgf.NewConjugatePoles); see WaitPoles.
func (sol *MEK1Solution) WaitMix() (mgf.Mix, error) {
	m := mgf.NewConjugatePoles(sol.WaitPoles())
	if err := m.Validate(); err != nil {
		return mgf.Mix{}, fmt.Errorf("M/E%d/1 wait mix (rho=%g): %w", sol.q.K, sol.q.Load(), err)
	}
	return m, nil
}

// WaitPoles returns the atom 1-rho, the poles p_i = beta z_i and the
// weights c_i of WaitMix's law for the solved roots. A complex pole stands
// for its conjugate pair too. At a root of R(z) = (z+a)(1-z)^K - a the
// residue of W(s) = (1-rho)(1-z)^K z/R(z) gives, in closed form,
//
//	c_i = -(1-rho)(1-z_i) / ((1-z_i) - K(z_i+a)).
//
// A real root's weight is formed from real numbers only, so it is exactly
// real, and the law's imaginary mass is exactly 0.
func (sol *MEK1Solution) WaitPoles() (atom float64, poles, weights []complex128) {
	q := sol.q
	a := complex(q.Lambda/q.Beta, 0)
	kk := complex(float64(q.K), 0)
	scale := complex(-(1 - q.Load()), 0)
	beta := complex(q.Beta, 0)
	poles = make([]complex128, len(sol.us))
	weights = make([]complex128, len(sol.us))
	for i, u := range sol.us {
		z := 1 - u
		poles[i] = beta * z
		weights[i] = scale * u / (u - kk*(z+a))
	}
	return 1 - q.Load(), poles, weights
}
