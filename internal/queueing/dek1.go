package queueing

import (
	"fmt"
	"math"
	"math/cmplx"

	"fpsping/internal/mgf"
)

// DEK1 is the D/E_K/1 queue of §3.2: bursts arrive every T seconds and bring
// an Erlang(K, Beta)-distributed amount of work (in seconds); the paper
// derives the waiting-time MGF exactly (appendices B-D). In the FPS setting a
// burst is the server's per-tick bundle of one packet per gamer, and the
// work is its transmission time on the aggregation link.
type DEK1 struct {
	K         int     // Erlang order of the burst work
	MeanBurst float64 // mean burst work b = K/Beta, s
	T         float64 // burst inter-arrival time, s
}

// NewDEK1 validates parameters and stability (MeanBurst < T).
func NewDEK1(k int, meanBurst, t float64) (DEK1, error) {
	if k < 1 || !(meanBurst > 0) || !(t > 0) {
		return DEK1{}, fmt.Errorf("%w: K=%d meanBurst=%g T=%g", ErrBadParam, k, meanBurst, t)
	}
	q := DEK1{K: k, MeanBurst: meanBurst, T: t}
	if q.Load() >= 1 {
		return DEK1{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Load())
	}
	return q, nil
}

// String summarizes the queue.
func (q DEK1) String() string {
	return fmt.Sprintf("D/E%d/1(rho=%.3g)", q.K, q.Load())
}

// Load returns rho = MeanBurst/T.
func (q DEK1) Load() float64 { return q.MeanBurst / q.T }

// Beta returns the Erlang rate parameter beta = K/MeanBurst (1/s).
func (q DEK1) Beta() float64 { return float64(q.K) / q.MeanBurst }

// rootMap returns the map g_k of the paper's eq. (26) for root index k
// (1-based), g(z) = exp((z-1)/rho + 2*pi*i*(k-1)/K), and its derivative
// g(z)/rho. Roots solve z = g(z).
func (q DEK1) rootMap(k int) branchMap {
	rho := complex(q.Load(), 0)
	phase := complex(0, 2*math.Pi*float64(k-1)/float64(q.K))
	return func(z complex128) (complex128, complex128) {
		g := cmplx.Exp((z-1)/rho + phase)
		return g, g / rho
	}
}

// DEK1Solution is a solved set of eq.-(26) roots, the expensive part of the
// D/E_K/1 waiting-time law. Root k lives at index k-1 — the index, not the
// value, identifies which branch of eq. (26) a root solves — which keeps
// the downstream term order canonical. The solution is immutable once built.
type DEK1Solution struct {
	q  DEK1
	zs []complex128
}

// Solve finds the K roots. The roots of eq. (26) come in conjugate pairs:
// g_{K+2-k}(conj z) = conj g_k(z), so zeta_{K+2-k} = conj(zeta_k). Solve
// solves k <= floor(K/2)+1, each by one Newton polish seeded with the first
// Appendix-C fixed-point iterate, g_k(0) = exp(-1/rho + 2*pi*i*(k-1)/K)
// (solveBranch), and sets the others to the exact conjugates of their
// partners; every stored root passes checkRoot's residual and half-plane
// checks. The full fixed-point iteration contracts only at rate
// |zeta_k|/rho, which tends to 1 as rho -> 1
// (queueing:TestDEK1SolveMatchesFixedPoint keeps it as a reference).
// WaitMix on the solution is pure arithmetic over the stored roots.
func (q DEK1) Solve() (*DEK1Solution, error) {
	zs := make([]complex128, q.K)
	var err error
	for k := 1; k <= q.K && err == nil; k++ {
		if k <= solvedRoots(q.K) {
			zs[k-1], err = solveBranch(k, q.K, q.rootMap(k))
		} else {
			// Negating the imaginary part is exact, so the pair is
			// conjugate bit for bit on any GOARCH.
			zs[k-1], err = checkRoot(k, q.rootMap(k), cmplx.Conj(zs[q.K+1-k]))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("queueing: D/E%d/1 (rho=%g): %w", q.K, q.Load(), err)
	}
	return &DEK1Solution{q: q, zs: zs}, nil
}

// SolveFrom returns q.Solve() and ignores prev, a neighbouring load's
// solution: the g_k(0) seed makes a cold solve as cheap as one seeded from
// a neighbour's roots. The signature stays for existing callers.
func (q DEK1) SolveFrom(prev *DEK1Solution) (*DEK1Solution, error) { return q.Solve() }

// weightsFromZetas returns the residues a_j of eq. (27) of the solved roots,
// j <= floor(K/2)+1:
//
//	a_j = zeta_j^K * prod_{k != j} (zeta_k - 1)/(zeta_k - zeta_j),
//
// the solution of the Vandermonde system sum_j a_j zeta_j^{-k} = 1
// (k = 1..K) from Appendix D. Each product runs over all K roots; the
// mirrored roots' residues are the conjugates a_{K+2-j} = conj(a_j).
func weightsFromZetas(zs []complex128) []complex128 {
	k := len(zs)
	out := make([]complex128, solvedRoots(k))
	for j := range out {
		a := cmplx.Pow(zs[j], complex(float64(k), 0))
		for i := 0; i < k; i++ {
			if i == j {
				continue
			}
			a *= (zs[i] - 1) / (zs[i] - zs[j])
		}
		out[j] = a
	}
	return out
}

// negligibleWaitMass is delta, the bound on P(W > 0) under which the
// D/E_K/1 wait W is the unit atom: 4e-9 of the smallest tail a served level
// inverts (1e-6), and enough to cover every law with |zeta_1| < 1e-8.
const negligibleWaitMass = 4e-15

// negligibleWait reports whether B(K, rho) = P(B_1 > T) + r^2/(1-r) <=
// negligibleWaitMass, r = (e^{1-1/rho}/rho)^K, a bound on P(W > 0) from
// (K, rho) alone. W is the supremum over n >= 0 of S_n = sum_{i<=n}
// (B_i - T), B_i the Erlang(K) work of burst i with mean rho*T, so
// P(W > 0) <= sum_{n>=1} P(S_n > 0). The n = 1 term is exact: the
// Poisson(K/rho) probability of at most K-1 events, summed down from its
// largest term, whose logarithm is formed first so that underflow hides
// only values far below delta. For n >= 2, Chernoff gives r^n. B grows
// with rho: the rule drops rho <= 0.054 at K = 2 and <= 0.605 at K = 200,
// and every law it keeps has each zeta_j^K in float64's normal range.
func negligibleWait(k int, rho float64) bool {
	lam := min(float64(k)/rho, math.MaxFloat64)
	sum, term := 1.0, 1.0
	for n := k - 1; n > 0; n-- {
		term *= float64(n) / lam
		sum += term
	}
	lg, _ := math.Lgamma(float64(k))
	r := math.Exp(float64(k) * (1 - 1/rho - math.Log(rho)))
	return math.Exp(float64(k-1)*math.Log(lam)-lam-lg)*sum+r*r/(1-r) <= negligibleWaitMass
}

// WaitMix returns the exact burst waiting-time law of eq. (18):
// W(s) = (1 - sum a_j) + sum a_j * alpha_j/(alpha_j - s).
// Its atom is the probability an arriving burst finds the queue empty. Where
// negligibleWait holds, W is the unit atom, returned without a root solve.
func (q DEK1) WaitMix() (mgf.Mix, error) {
	if negligibleWait(q.K, q.Load()) {
		return mgf.Mix{Atom: 1}, nil
	}
	sol, err := q.Solve()
	if err != nil {
		return mgf.Mix{}, err
	}
	return sol.WaitMix()
}

// WaitMix builds the eq.-(18) waiting-time law over the solved roots; see
// DEK1.WaitMix for the law and the unit atom where the wait is negligible.
func (sol *DEK1Solution) WaitMix() (mgf.Mix, error) {
	m := mgf.NewConjugatePoles(sol.WaitPoles())
	if err := m.Validate(); err != nil {
		return mgf.Mix{}, fmt.Errorf("D/E%d/1 wait mix (rho=%g): %w", sol.q.K, sol.q.Load(), err)
	}
	return m, nil
}

// WaitPoles returns the atom, the poles alpha_j = beta(1-zeta_j) and the
// weights a_j of the eq.-(18) law for the solved roots j <= floor(K/2)+1,
// distinct by construction, or the unit atom alone where negligibleWait holds.
// A complex pole stands for its conjugate pair too (mgf.NewConjugatePoles):
// the mirrored roots' poles and weights are the conjugates. The weights of
// the real roots are real; their imaginary rounding dust is flushed, which
// changes no tail (real(a*r) = real(a)*r for a real r) and makes the law's
// imaginary mass exactly 0.
func (sol *DEK1Solution) WaitPoles() (atom float64, poles, weights []complex128) {
	if negligibleWait(sol.q.K, sol.q.Load()) {
		return 1, nil, nil
	}
	weights = weightsFromZetas(sol.zs)
	beta := complex(sol.q.Beta(), 0)
	poles = make([]complex128, len(weights))
	mass := 0.0
	for j, z := range sol.zs[:len(weights)] {
		poles[j] = beta * (1 - z)
		if imag(z) == 0 {
			weights[j] = complex(real(weights[j]), 0)
			mass += real(weights[j])
		} else {
			mass += 2 * real(weights[j])
		}
	}
	return 1 - mass, poles, weights
}
