package queueing

import (
	"fmt"
	"math/cmplx"
	"sort"

	"fpsping/internal/mgf"
	"fpsping/internal/xmath"
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

// scaledPoly returns the coefficients (lowest degree first) of
//
//	S(z) = [(z+a)(1-z)^K - a] / z,   a = lambda/beta,
//
// the denominator of the waiting-time MGF in the scaled variable z = s/beta.
// Working in z keeps every coefficient O(1), which the root finder needs
// (the raw polynomial carries beta^K ~ 1e19 factors).
func (q MEK1) scaledPoly() []complex128 {
	k := q.K
	a := complex(q.Lambda/q.Beta, 0)
	// (1 - z)^K coefficients: b[j] = C(K,j)(-1)^j.
	b := make([]complex128, k+1)
	choose := 1.0
	for j := 0; j <= k; j++ {
		if j > 0 {
			choose = choose * float64(k-j+1) / float64(j)
		}
		if j%2 == 1 {
			b[j] = complex(-choose, 0)
		} else {
			b[j] = complex(choose, 0)
		}
	}
	// R(z) = (z + a)*(1-z)^K - a: degree K+1, R(0) = 0 exactly.
	r := make([]complex128, k+2)
	for j := 0; j <= k; j++ {
		r[j] += a * b[j]
		r[j+1] += b[j]
	}
	r[0] -= a
	// S = R/z.
	return r[1:]
}

// polishScaledRoot runs the Newton polish on the factored identity
// h(z) = (z+a)(1-z)^K - a, whose evaluation is far better conditioned than
// the expanded polynomial (no binomial-coefficient cancellation). The
// iterates are a deterministic function of (start, parameters).
func (q MEK1) polishScaledRoot(z complex128) complex128 {
	a := complex(q.Lambda/q.Beta, 0)
	kk := complex(float64(q.K), 0)
	for iter := 0; iter < 30; iter++ {
		om := 1 - z
		omk1 := cmplx.Pow(om, kk-1)
		h := (z+a)*omk1*om - a
		dh := omk1 * (om - kk*(z+a))
		if dh == 0 {
			break
		}
		step := h / dh
		z -= step
		if cmplx.Abs(step) < 1e-16*(1+cmplx.Abs(z)) {
			break
		}
	}
	return z
}

// finishScaledRoots applies the canonical final stage of the solve: polish
// each root, snap it to the canonical seed grid, re-polish from the snapped
// seed (see xmath.SnapSeed), then sort the set by (real, imag). The snap
// makes each root's bits independent of the factorization's rounding, and
// the sort makes the order independent of PolyRoots' deflation order —
// term order is arithmetic order downstream.
func (q MEK1) finishScaledRoots(zs []complex128) []complex128 {
	for i, z := range zs {
		z = q.polishScaledRoot(z)
		zs[i] = q.polishScaledRoot(xmath.SnapSeedC(z))
	}
	sort.Slice(zs, func(i, j int) bool {
		if real(zs[i]) != real(zs[j]) {
			return real(zs[i]) < real(zs[j])
		}
		return imag(zs[i]) < imag(zs[j])
	})
	return zs
}

// scaledRoots solves the scaled denominator (PolyRoots factorization) and
// applies the canonical polish stage.
func (q MEK1) scaledRoots() ([]complex128, error) {
	zs, err := xmath.PolyRoots(q.scaledPoly())
	if err != nil {
		return nil, fmt.Errorf("M/E%d/1 poles: %w", q.K, err)
	}
	return q.finishScaledRoots(zs), nil
}

// MEK1Solution is the one-shot root solve of the scaled waiting-time
// denominator, from which both the pole list and the waiting-time mix derive
// without re-running PolyRoots + Newton polish. Solve is the entry point.
type MEK1Solution struct {
	q  MEK1
	zs []complex128 // polished scaled roots z_i = p_i/beta
}

// Solve factors the scaled denominator once and returns the reusable
// solution. WaitMix on the solution is pure arithmetic over the stored
// roots; MEK1.WaitMix is its one-shot wrapper.
func (q MEK1) Solve() (*MEK1Solution, error) {
	zs, err := q.scaledRoots()
	if err != nil {
		return nil, err
	}
	return &MEK1Solution{q: q, zs: zs}, nil
}

// WaitMix returns the exact waiting-time law as an Erlang-term mix:
// W(s) = (1-rho) + sum_i c_i p_i/(p_i - s) with, in scaled coordinates
// z_i = p_i/beta,
//
//	c_i = -(1-rho)(1-z_i)^K / (S'(z_i) z_i).
func (sol *MEK1Solution) WaitMix() (mgf.Mix, error) {
	atom, poles, weights, err := sol.WaitPoles()
	if err != nil {
		return mgf.Mix{}, err
	}
	m := mgf.NewPoles(atom, poles, weights)
	if err := m.Validate(); err != nil {
		return mgf.Mix{}, fmt.Errorf("M/E%d/1 wait mix (rho=%g): %w", sol.q.K, sol.q.Load(), err)
	}
	return m, nil
}

// WaitPoles returns the atom 1-rho, the poles p_i and the weights c_i of
// WaitMix's law, one pole per root of the scaled denominator. A root off
// the open right half plane or with a zero residue denominator is an error.
func (sol *MEK1Solution) WaitPoles() (atom float64, poles, weights []complex128, err error) {
	q := sol.q
	ds := xmath.PolyDeriv(q.scaledPoly())
	rho := q.Load()
	poles = make([]complex128, len(sol.zs))
	weights = make([]complex128, len(sol.zs))
	for i, z := range sol.zs {
		if real(z) <= 0 {
			return 0, nil, nil, fmt.Errorf("M/E%d/1: pole %v in left half plane (rho=%g)", q.K, z, q.Load())
		}
		den := xmath.PolyEval(ds, z) * z
		if den == 0 {
			return 0, nil, nil, fmt.Errorf("M/E%d/1: repeated pole %v", q.K, z)
		}
		num := complex(1-rho, 0) * cmplx.Pow(1-z, complex(float64(q.K), 0))
		poles[i] = complex(q.Beta, 0) * z
		weights[i] = -num / den
	}
	return 1 - rho, poles, weights, nil
}
