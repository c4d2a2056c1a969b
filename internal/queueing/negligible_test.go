package queueing

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"reflect"
	"testing"

	"fpsping/internal/mgf"
)

// The negligible-wait rule (negligibleWait) serves the D/E_K/1 wait W as the
// unit atom where B(K, rho) bounds P(W > 0) by negligibleWaitMass. These
// tests pin what the rule must keep: the laws two float tests on the solved
// roots used to make the unit atom (zetaTestsAtom) still are; no kept law
// needs a power zeta_j^K outside float64's normal range; the dropped laws'
// wait probability, from the 256-bit roots, is within the bound; and the
// answers a dropped law serves do not move.

// atomLevels are the quantile levels the dropped laws' answers are checked
// at.
var atomLevels = []float64{0.99, 0.999, 0.9999, 0.99999, 0.999999}

// atomRTTTol bounds how far, relative, dropping W may move the RTT quantile
// and mean of the reference scenario at atomLevels.
const atomRTTTol = 1e-12

// zetaTestsAtom reports whether the law at q is the unit atom by the two
// float tests on its solved roots that negligibleWait replaced:
// |zeta_1| < 1e-8, or zeta_1^K underflowing to 0. zeta_1 is the root
// Solve stores first, solved alone.
func zetaTestsAtom(t *testing.T, q DEK1) bool {
	t.Helper()
	z, err := solveBranch(1, q.K, q.rootMap(1))
	if err != nil {
		t.Fatalf("K=%d rho=%v: %v", q.K, q.Load(), err)
	}
	return cmplx.Abs(z) < 1e-8 || math.Pow(real(z), float64(q.K)) == 0
}

// smallestZetaPower returns the smallest |zeta_j^K| of q's solved roots,
// each power formed as weightsFromZetas forms it.
func smallestZetaPower(t *testing.T, q DEK1) float64 {
	t.Helper()
	sol, err := q.Solve()
	if err != nil {
		t.Fatalf("K=%d rho=%v: %v", q.K, q.Load(), err)
	}
	smallest := math.Inf(1)
	for _, z := range sol.zs[:solvedRoots(q.K)] {
		smallest = min(smallest, cmplx.Abs(cmplx.Pow(z, complex(float64(q.K), 0))))
	}
	return smallest
}

// waitBoundary returns the largest load the rule drops at Erlang order k:
// negligibleWait holds up to it and not above, since B grows with rho.
func waitBoundary(k int) float64 {
	lo, hi := 1e-6, 0.999
	for {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			return lo
		}
		if negligibleWait(k, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
}

// TestNegligibleWaitIsAtom checks the rule over K 2-200 x rho 0.001-0.999
// in steps of 0.001, plus the rule's boundary at each K:
//   - every law the zeta tests made the unit atom is dropped;
//   - every dropped law's W is exactly the unit atom, reached without a
//     solve, and its quantile (the served BurstWait component) is 0 at
//     every level;
//   - every solved zeta_j^K of a kept law is at least 2^-1022;
//   - DEK1.WaitMix of a dropped law allocates nothing.
//
// The dropped laws' wait probability against the oracle and their answers
// are checked by TestNegligibleWaitMatchesOracle and
// TestNegligibleWaitKeepsAnswers.
func TestNegligibleWaitIsAtom(t *testing.T) {
	var laws, dropped, zetaAtoms int
	smallest := math.Inf(1) // the smallest |zeta_j^K| of a kept law
	for k := 2; k <= 200; k++ {
		edge := waitBoundary(k)
		loads := []float64{edge, math.Nextafter(edge, 1)}
		for i := 1; i <= 999; i++ {
			loads = append(loads, float64(i)/1000)
		}
		for _, rho := range loads {
			q := DEK1{K: k, MeanBurst: rho, T: 1}
			name := fmt.Sprintf("K=%d rho=%v", k, rho)
			laws++
			drop := negligibleWait(k, rho)
			if zetaTestsAtom(t, q) {
				zetaAtoms++
				if !drop {
					t.Errorf("%s: the zeta tests make W the unit atom, the rule keeps it", name)
				}
			}
			if drop {
				dropped++
				w, err := q.WaitMix()
				if err != nil || !reflect.DeepEqual(w, mgf.Mix{Atom: 1}) {
					t.Fatalf("%s: dropped law is %v, %v; want the unit atom", name, w, err)
				}
				for _, p := range atomLevels {
					if x, err := w.Quantile(p); x != 0 || err != nil {
						t.Errorf("%s: W quantile at %v is %v, %v; want 0", name, p, x, err)
					}
				}
				continue
			}
			a := smallestZetaPower(t, q)
			smallest = min(smallest, a)
			if !(a >= 0x1p-1022) {
				t.Errorf("%s: kept law has a |zeta_j^K| of %g, below the normal range", name, a)
			}
		}
	}
	q := DEK1{K: 200, MeanBurst: 0.4, T: 1}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = q.WaitMix() }); allocs != 0 {
		t.Errorf("DEK1.WaitMix at K=200 rho=0.4 makes %v allocations; want 0", allocs)
	}
	t.Logf("%d laws: %d dropped, %d of them unit atoms by the zeta tests; smallest kept |zeta_j^K| %.3g",
		laws, dropped, zetaAtoms, smallest)
	for _, k := range []int{2, 9, 30, 100, 200} {
		t.Logf("K=%d: the rule drops rho <= %.4f", k, waitBoundary(k))
	}
}

// atomOracleOrders are the Erlang orders of the oracle sample.
var atomOracleOrders = []int{2, 3, 5, 9, 17, 30, 50, 100, 156, 200}

// atomOracleLoads returns the oracle sample's loads at Erlang order k: the
// rule's boundary and 0.9, 0.5 and 0.1 of it.
func atomOracleLoads(k int) []float64 {
	edge := waitBoundary(k)
	return []float64{edge, 0.9 * edge, 0.5 * edge, 0.1 * edge}
}

// oracleWaitMass returns P(W > 0) = sum_j a_j of the D/E_K/1 law at k and
// rho from the 256-bit roots of all K branches with the eq.-(27) weights,
// and the sum of the weights' magnitudes, sum_j |a_j|.
func oracleWaitMass(t *testing.T, k int, rho float64) (mass, scale *big.Float) {
	t.Helper()
	zs := make([]bigc, k)
	for i := range zs {
		if i >= solvedRoots(k) {
			z := zs[k-i]
			zs[i] = bigc{z.re, bf().Neg(z.im)}
			continue
		}
		z, err := dek1OracleRoot(rho, i+1, k, bigUnitRoot(i, k))
		if err != nil {
			t.Fatal(err)
		}
		zs[i] = z.at(oraclePrec)
	}
	one := bc(1).at(oraclePrec)
	mass, scale = bf().SetPrec(oraclePrec), bf().SetPrec(oraclePrec)
	for j, zj := range zs {
		a := zj.pow(k)
		for i, zi := range zs {
			if i != j {
				a = a.mul(zi.sub(one).quo(zi.sub(zj)))
			}
		}
		mass.Add(mass, a.re)
		scale.Add(scale, a.absFloat())
	}
	return mass, scale
}

// TestNegligibleWaitMatchesOracle checks, for a sample of dropped laws
// spanning K 2-200 up to the rule's boundary, that the wait probability
// P(W > 0) formed from the oracle's roots with the eq.-(27) weights is at
// most negligibleWaitMass. The weights cancel in the sum, so the sum is
// charged 2^-100 of their magnitudes on top: the roots carry over 200 bits.
func TestNegligibleWaitMatchesOracle(t *testing.T) {
	delta := big.NewFloat(negligibleWaitMass)
	for _, k := range atomOracleOrders {
		for _, rho := range atomOracleLoads(k) {
			if !negligibleWait(k, rho) {
				t.Fatalf("K=%d rho=%v: sample law is kept", k, rho)
			}
			mass, scale := oracleWaitMass(t, k, rho)
			bound := bf().Add(mass, bf().SetMantExp(scale, -100))
			if bound.Cmp(delta) > 0 {
				t.Errorf("K=%d rho=%v: oracle P(W > 0) = %.4g (+ %.3g), above %g",
					k, rho, mass, bf().SetMantExp(scale, -100), negligibleWaitMass)
			}
			if rho == atomOracleLoads(k)[0] {
				share, _ := bf().Quo(mass, delta).Float64()
				t.Logf("K=%d boundary rho=%.5f: oracle P(W > 0) = %.6g, %.12f of the bound", k, rho, mass, share)
			}
		}
	}
}

// atomQueues returns the reference scenario's queues at Erlang order k and
// downlink load rho, and its deterministic delay: the Figure 3 scenario of
// §4 (PC = 80 B, PS = 125 B, T = 60 ms, Rup = 128 kbit/s, Rdown =
// 1024 kbit/s, C = 5 Mbit/s), with the gamer count that makes the load rho,
// the upstream M/D/1 and the downstream D/E_K/1.
func atomQueues(t *testing.T, k int, rho float64) (up MD1, down DEK1, fixed float64) {
	t.Helper()
	const pc, ps, period, rup, rdown, c = 80.0, 125.0, 0.060, 128e3, 1024e3, 5e6
	gamers := rho * period * c / (8 * ps)
	up, err := NewMD1(gamers/period, 8*pc/c)
	if err == nil {
		down, err = NewDEK1(k, 8*gamers*ps/c, period)
	}
	if err != nil {
		t.Fatal(err)
	}
	return up, down, 8*pc/rup + 8*pc/c + 8*ps/c + 8*ps/rdown
}

// residueLaw returns the eq.-(18) law of q's solved roots with the
// eq.-(27) weights, built as DEK1Solution.WaitPoles builds it where the
// negligible-wait rule keeps the law, whatever the rule says.
func residueLaw(q DEK1) (mgf.Mix, error) {
	sol, err := q.Solve()
	if err != nil {
		return mgf.Mix{}, err
	}
	weights := weightsFromZetas(sol.zs)
	poles := make([]complex128, len(weights))
	mass := 0.0
	for j, z := range sol.zs[:len(weights)] {
		poles[j] = complex(q.Beta(), 0) * (1 - z)
		if imag(z) == 0 {
			weights[j] = complex(real(weights[j]), 0)
			mass += real(weights[j])
		} else {
			mass += 2 * real(weights[j])
		}
	}
	w := mgf.NewConjugatePoles(1-mass, poles, weights)
	return w, w.Validate()
}

// delaySum returns the queueing-delay law of the queues up and down with
// the burst wait w: the upstream M/D/1 wait of eq. (14), w and the
// position law.
func delaySum(t *testing.T, up MD1, down DEK1, w mgf.Mix) mgf.Sum {
	t.Helper()
	du, err := up.WaitMixPaper()
	if err != nil {
		t.Fatal(err)
	}
	law, err := mgf.NewSum(du, w, down.K, down.Beta())
	if err != nil {
		t.Fatal(err)
	}
	return law
}

// TestNegligibleWaitKeepsAnswers checks that dropping W moves the reference
// scenario's RTT quantile at atomLevels, and its mean RTT, by at most
// atomRTTTol relative against the law with W's eq.-(27) weights. It checks
// the law at the rule's boundary at every K 2-200, whose wait probability
// is the largest the rule drops, and, at the oracle sample's orders, the
// loads 0.01 apart below it down to where W was formed otherwise: where
// the zeta tests made it the unit atom, or a zeta_j^K is below the normal
// range, where each weight's product took a factor zeta_j in every term.
func TestNegligibleWaitKeepsAnswers(t *testing.T) {
	worst := 0.0
	check := func(k int, rho float64) {
		name := fmt.Sprintf("K=%d rho=%v", k, rho)
		up, down, fixed := atomQueues(t, k, rho)
		w, err := down.WaitMix()
		if err != nil || len(w.Terms) != 0 {
			t.Fatalf("%s: served W is %v, %v; want the unit atom", name, w, err)
		}
		residue, err := residueLaw(down)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		atom, weighted := delaySum(t, up, down, w), delaySum(t, up, down, residue)
		near := func(what string, got, want float64) {
			d := math.Abs(got-want) / want
			worst = max(worst, d)
			if !(d <= atomRTTTol) {
				t.Errorf("%s: %s %.17g, with W's weights %.17g (%.3g relative)", name, what, got, want, d)
			}
		}
		near("mean RTT", atom.Mean()+fixed, weighted.Mean()+fixed)
		for _, p := range atomLevels {
			got, err := atom.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := weighted.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			near(fmt.Sprintf("RTT quantile at %v", p), got+fixed, want+fixed)
		}
	}
	for k := 2; k <= 200; k++ {
		// The scenario forms its load from a gamer count, which may round
		// it above the boundary: step down until the rule drops it.
		rho := waitBoundary(k)
		for {
			if _, down, _ := atomQueues(t, k, rho); negligibleWait(k, down.Load()) {
				break
			}
			rho = math.Nextafter(rho, 0)
		}
		check(k, rho)
	}
	for _, k := range atomOracleOrders {
		for rho := waitBoundary(k) - 0.01; rho > 0; rho -= 0.01 {
			q := DEK1{K: k, MeanBurst: rho, T: 1}
			if zetaTestsAtom(t, q) || smallestZetaPower(t, q) < 0x1p-1022 {
				break
			}
			check(k, rho)
		}
	}
	t.Logf("largest relative move of an RTT quantile or mean: %.3g (bound %g)", worst, atomRTTTol)
}

// FuzzNegligibleWaitIsAtom checks the rule at fuzzed points: K is mapped to
// 2-200 and rho must lie in (0, 1-1e-9], the loads the root solve is
// pinned over (TestDEK1SolveMatchesFixedPoint). A law the rule keeps has
// every solved zeta_j^K in float64's normal range and its W passes
// Validate; a law it drops is the unit atom, reached without a solve.
func FuzzNegligibleWaitIsAtom(f *testing.F) {
	f.Add(uint8(0), 0.0543)
	f.Add(uint8(7), 0.16)
	f.Add(uint8(28), 0.3)
	f.Add(uint8(154), 0.0546875)
	f.Add(uint8(198), 0.4)
	f.Add(uint8(198), 0.61)
	f.Add(uint8(198), 0.999)
	f.Fuzz(func(t *testing.T, kRaw uint8, rho float64) {
		k := 2 + int(kRaw)%199
		if !(rho > 0 && rho <= 1-1e-9) {
			return
		}
		q := DEK1{K: k, MeanBurst: rho, T: 1}
		name := fmt.Sprintf("K=%d rho=%v", k, rho)
		if negligibleWait(k, rho) {
			if w, err := q.WaitMix(); err != nil || !reflect.DeepEqual(w, mgf.Mix{Atom: 1}) {
				t.Errorf("%s: dropped law is %v, %v; want the unit atom", name, w, err)
			}
			if allocs := testing.AllocsPerRun(1, func() { _, _ = q.WaitMix() }); allocs != 0 {
				t.Errorf("%s: a dropped law makes %v allocations; want none (no solve)", name, allocs)
			}
			return
		}
		if a := smallestZetaPower(t, q); !(a >= 0x1p-1022) {
			t.Errorf("%s: kept law has a |zeta_j^K| of %g, below the normal range", name, a)
		}
		if _, err := q.WaitMix(); err != nil {
			t.Errorf("%s: kept law rejected: %v", name, err)
		}
	})
}
