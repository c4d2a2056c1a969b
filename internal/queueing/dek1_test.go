package queueing

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"fpsping/internal/mgf"
)

// walkLoads is the load axis the SolveFrom contract is pinned over: the
// paper's grid ascending and the same grid reversed.
func walkLoads() [][]float64 {
	up := make([]float64, 18)
	for i := range up {
		up[i] = 0.05 + float64(i)*0.05
	}
	down := make([]float64, len(up))
	for i := range down {
		down[i] = up[len(up)-1-i]
	}
	return [][]float64{up, down}
}

// TestDEK1SolveFromBitIdenticalToSolve pins the SolveFrom contract: handed
// the neighbouring load's solution, it must return exactly the bits of
// Solve at every point of the walk, in both directions.
func TestDEK1SolveFromBitIdenticalToSolve(t *testing.T) {
	for _, k := range []int{2, 9, 20, 28} {
		for wi, loads := range walkLoads() {
			var prev *DEK1Solution
			for _, rho := range loads {
				q, err := NewDEK1(k, rho*0.060, 0.060)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := q.SolveFrom(prev)
				if err != nil {
					t.Fatalf("K=%d walk %d rho=%v: warm: %v", k, wi, rho, err)
				}
				cold, err := q.Solve()
				if err != nil {
					t.Fatalf("K=%d walk %d rho=%v: cold: %v", k, wi, rho, err)
				}
				wz, cz := warm.zetas(), cold.zetas()
				for i := range wz {
					if wz[i] != cz[i] {
						t.Errorf("K=%d walk %d rho=%v root %d: warm %v != cold %v",
							k, wi, rho, i, wz[i], cz[i])
					}
				}
				prev = warm
			}
		}
	}
}

// TestDEK1SelfConjugateBranchReal pins the even-K negative-axis branch
// (k = K/2+1, phase pi): its root is mathematically real, and the canonical
// snap stage must flush the e^{i*pi} rounding dust so the stored root is
// exactly real — the property that makes the solve's bits independent of
// its seed on that branch.
func TestDEK1SelfConjugateBranchReal(t *testing.T) {
	for _, k := range []int{2, 10, 20} {
		for _, rho := range []float64{0.3, 0.45, 0.8} {
			q, err := NewDEK1(k, rho*0.060, 0.060)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := q.Solve()
			if err != nil {
				t.Fatal(err)
			}
			z := sol.zetas()[k/2] // branch K/2+1 at index K/2
			if imag(z) != 0 {
				t.Errorf("K=%d rho=%v: zeta_%d = %v has nonzero imaginary part", k, rho, k/2+1, z)
			}
			if real(z) >= 0 {
				t.Errorf("K=%d rho=%v: zeta_%d = %v not on the negative axis", k, rho, k/2+1, z)
			}
		}
	}
}

// fixedPointSolve is the paper's Appendix-C root solve, kept as the
// reference for Solve's seed: the fixed-point iteration z <- g_k(z) from
// zero until a step is below 1e-15 (at most 20,000 iterations), then the
// canonical polish stage.
func fixedPointSolve(q DEK1) ([]complex128, error) {
	zs := make([]complex128, q.K)
	for k := 1; k <= q.K; k++ {
		g := q.rootMap(k)
		z := complex(0, 0)
		for i := 0; i < 20000; i++ {
			nz := g(z)
			if cmplx.Abs(nz-z) < 1e-15 {
				z = nz
				break
			}
			z = nz
		}
		var err error
		if zs[k-1], err = q.finishZeta(k, z); err != nil {
			return nil, err
		}
	}
	return zs, nil
}

// TestDEK1SolveMatchesFixedPoint pins Solve against the full Appendix-C
// fixed-point iteration, which solves every branch on its own, from a
// vanishing load to 1e-9 below saturation; both succeed or both fail. The
// solved half, k <= floor(K/2)+1, is the reference's bit for bit, which
// pins the g_k(0) Newton seed. Each mirrored root is exactly the conjugate
// of its partner, and within 4e-15 relative of the reference's own polished
// root for its branch: two independent polishes of one root agree only to a
// few ulps (the worst is ~2.6e-15, at K = 200 and rho = 0.85).
func TestDEK1SolveMatchesFixedPoint(t *testing.T) {
	const mirrorTol = 4e-15
	worst, mirrored, beyondEps := 0.0, 0, 0
	loads := []float64{1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.03}
	for i := 1; i <= 19; i++ {
		loads = append(loads, float64(i)/20)
	}
	loads = append(loads, 0.35/1.05, 0.48, 0.97, 0.98, 0.99, 0.995)
	for e := 3; e <= 9; e++ {
		loads = append(loads, 1-math.Pow(10, -float64(e)))
	}
	for _, k := range []int{1, 2, 3, 5, 9, 12, 17, 18, 20, 30, 50, 100, 200} {
		for _, rho := range loads {
			q := DEK1{K: k, MeanBurst: rho * 0.05, T: 0.05}
			want, werr := fixedPointSolve(q)
			sol, err := q.Solve()
			if (werr != nil) != (err != nil) {
				t.Errorf("K=%d rho=%v: fixed point err %v, Solve err %v", k, rho, werr, err)
				continue
			}
			if err != nil {
				continue
			}
			h := solvedRoots(k)
			for i, z := range sol.zs {
				if i < h {
					if z != want[i] {
						t.Errorf("K=%d rho=%v root %d: Solve %v != fixed point %v", k, rho, i+1, z, want[i])
					}
					continue
				}
				if partner := cmplx.Conj(sol.zs[k-i]); z != partner {
					t.Errorf("K=%d rho=%v root %d: %v is not the conjugate of root %d, %v",
						k, rho, i+1, z, k-i+1, partner)
				}
				// Roots that underflow to 0 at a vanishing load are
				// equal; the product form keeps 0/0 out of the test.
				d, r := cmplx.Abs(z-want[i]), cmplx.Abs(want[i])
				mirrored++
				if d > 1e-15*r {
					beyondEps++
				}
				if !(d <= mirrorTol*r) {
					t.Errorf("K=%d rho=%v root %d: mirrored %v is %.3g from the fixed point's %v, relative",
						k, rho, i+1, z, d/r, want[i])
				} else if d > 0 {
					worst = max(worst, d/r)
				}
			}
		}
	}
	t.Logf("%d of %d mirrored roots beyond 1e-15 of the fixed point's, relative; worst %.3g",
		beyondEps, mirrored, worst)
}

// BenchmarkDEK1Solve times the root solve at the paper's K=9 midpoint, near
// saturation (where the fixed-point iteration would crawl), and at K=30 and
// K=100.
func BenchmarkDEK1Solve(b *testing.B) {
	for _, c := range []struct {
		name string
		k    int
		rho  float64
	}{{"K9_rho0.5", 9, 0.5}, {"K9_rho0.999", 9, 0.999}, {"K30_rho0.7", 30, 0.7}, {"K100_rho0.7", 100, 0.7}} {
		q, err := NewDEK1(c.k, c.rho*0.060, 0.060)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zetas returns the K roots zeta_k (k = 1..K) of the paper's eq. (26),
//
//	z = exp((z-1)/rho + 2*pi*i*(k-1)/K),  Re z < 1,
//
// as Solve finds them, zeta_k at index k-1.
func (q DEK1) zetas() ([]complex128, error) {
	sol, err := q.Solve()
	if err != nil {
		return nil, err
	}
	return sol.zetas(), nil
}

// zetas returns a copy of the solved roots, zeta_k at index k-1.
func (sol *DEK1Solution) zetas() []complex128 {
	return append([]complex128(nil), sol.zs...)
}

// weights returns the eq.-(27) residues of all K roots, a_j at index j-1:
// the solved half's and their conjugates for the mirrored roots.
func (q DEK1) weights() ([]complex128, error) {
	sol, err := q.Solve()
	if err != nil {
		return nil, err
	}
	ws := weightsFromZetas(sol.zs)
	for i := len(ws); i < q.K; i++ {
		ws = append(ws, cmplx.Conj(ws[q.K-i]))
	}
	return ws, nil
}

// meanWait returns the exact mean burst waiting time from the MGF.
func (q DEK1) meanWait() (float64, error) {
	m, err := q.WaitMix()
	if err != nil {
		return 0, err
	}
	return m.Mean(), nil
}

// positionMixSpot returns the packet-position delay law of eq. (32) for a
// packet always at relative position theta in (0,1] of its burst:
// P(s) = (beta/(beta - s*theta))^K, i.e. Erlang(K, beta/theta). theta = 0
// (first packet of the burst) gives a unit atom.
func (q DEK1) positionMixSpot(theta float64) (mgf.Mix, error) {
	if theta < 0 || theta > 1 {
		return mgf.Mix{}, fmt.Errorf("%w: theta=%g outside [0,1]", ErrBadParam, theta)
	}
	if theta == 0 {
		return mgf.Mix{Atom: 1}, nil
	}
	coef := make([]complex128, q.K)
	coef[q.K-1] = 1
	m := mgf.Mix{Terms: []mgf.Term{{Pole: complex(q.Beta()/theta, 0), Coef: coef}}}
	if err := m.Validate(); err != nil {
		return mgf.Mix{}, err
	}
	return m, nil
}
