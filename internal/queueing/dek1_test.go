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
// (k = K/2+1, phase pi): its root is mathematically real, and the solve
// must flush the e^{i*pi} rounding dust (finishRoot) so the stored root is
// exactly real, as the conjugate symmetry requires.
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

// fixedPointSolve is the paper's Appendix-C root solve, kept as a
// reference: the fixed-point iteration z <- g_k(z) from zero until a step is
// below 1e-15 (at most 20,000 iterations), then Solve's final polish and
// checks (finishRoot).
func fixedPointSolve(q DEK1) ([]complex128, error) {
	zs := make([]complex128, q.K)
	for k := 1; k <= q.K; k++ {
		g := q.rootMap(k)
		z := complex(0, 0)
		for i := 0; i < 20000; i++ {
			nz, _ := g(z)
			if cmplx.Abs(nz-z) < 1e-15 {
				z = nz
				break
			}
			z = nz
		}
		var err error
		if zs[k-1], err = finishRoot(k, q.K, g, z); err != nil {
			return nil, err
		}
	}
	return zs, nil
}

// TestDEK1SolveMatchesFixedPoint checks Solve over K 1-200, from a
// vanishing load to 1e-9 below saturation. Solve succeeds where the full
// Appendix-C fixed-point iteration does and fails where it fails. Each
// mirrored root is exactly the conjugate of its partner. Each solved root,
// k <= floor(K/2)+1, is within rootTol * eps * cond of the oracle's root of
// its branch, relative, with cond = (1 + |(zeta-1)/rho + 2*pi*i*(k-1)/K|) /
// |1 - zeta/rho|: the exponent g_k evaluates times the inverse Newton
// derivative. Near saturation cond grows as 1/(1-rho), and so does the
// error of 1-zeta_1, the pole's variable; the report gives the worst of
// both per load region.
func TestDEK1SolveMatchesFixedPoint(t *testing.T) {
	log := &rootLog{}
	for _, k := range rootOrders {
		units := make([]bigc, solvedRoots(k))
		for i := range units {
			units[i] = bigUnitRoot(i, k)
		}
		for _, rho := range rootLoads() {
			q := DEK1{K: k, MeanBurst: rho * 0.05, T: 0.05}
			name := fmt.Sprintf("K=%d rho=%v", k, rho)
			_, werr := fixedPointSolve(q)
			sol, err := q.Solve()
			if (werr != nil) != (err != nil) {
				t.Errorf("%s: fixed point err %v, Solve err %v", name, werr, err)
				continue
			}
			if err != nil {
				continue
			}
			r := q.Load()
			for i, z := range sol.zs {
				if i >= solvedRoots(k) {
					if partner := cmplx.Conj(sol.zs[k-i]); z != partner {
						t.Errorf("%s root %d: %v is not the conjugate of root %d, %v", name, i+1, z, k-i+1, partner)
					}
					continue
				}
				want, err := dek1OracleRoot(r, i+1, k, units[i])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w := want.complex128()
				lg := (w-1)/complex(r, 0) + complex(0, 2*math.Pi*float64(i)/float64(k))
				cond := (1 + cmplx.Abs(lg)) / cmplx.Abs(1-w/complex(r, 0))
				log.check(t, r, fmt.Sprintf("%s root %d", name, i+1), z, want, cond)
			}
		}
	}
	log.report(t, "D/E_K/1")
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
