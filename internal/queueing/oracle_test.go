package queueing

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"strings"
	"testing"
)

// This file is the root oracle: both queues' roots solved again in
// math/big at 256 bits, from the exact float64 parameters the float64 solve
// sees. The D/E_K/1 oracle runs Newton from g_k(0) like the float64 solve
// but shares none of its arithmetic. The M/E_K/1 oracle bisects for the
// real root of the polynomial u^K(1+a-u) - a, polishes each complex float64
// root on that polynomial, and checks that the K roots it reaches are
// distinct, so they are all of them.

// oraclePrec is the oracle's working precision in bits.
const oraclePrec = 256

// bigc is a complex number of big.Floats. Arithmetic on it runs at the
// larger precision of its operands (bf's results take it from them), so a
// Newton iteration runs at the precision of its start: the oracle takes
// its first steps at rampPrec and its last at oraclePrec.
type bigc struct{ re, im *big.Float }

// rampPrec is the precision of the oracle's first Newton steps.
const rampPrec = 96

func bf() *big.Float { return new(big.Float) }

// bc returns z exactly, at 53 bits.
func bc(z complex128) bigc { return bigc{bf().SetFloat64(real(z)), bf().SetFloat64(imag(z))} }

// at returns a rounded to prec bits.
func (a bigc) at(prec uint) bigc {
	return bigc{new(big.Float).SetPrec(prec).Set(a.re), new(big.Float).SetPrec(prec).Set(a.im)}
}

func (a bigc) prec() uint { return max(a.re.Prec(), a.im.Prec()) }

func (a bigc) add(b bigc) bigc { return bigc{bf().Add(a.re, b.re), bf().Add(a.im, b.im)} }

func (a bigc) sub(b bigc) bigc { return bigc{bf().Sub(a.re, b.re), bf().Sub(a.im, b.im)} }

func (a bigc) mul(b bigc) bigc {
	rr, ii := bf().Mul(a.re, b.re), bf().Mul(a.im, b.im)
	ri, ir := bf().Mul(a.re, b.im), bf().Mul(a.im, b.re)
	return bigc{rr.Sub(rr, ii), ri.Add(ri, ir)}
}

func (a bigc) quo(b bigc) bigc {
	d := bf().Mul(b.re, b.re)
	d.Add(d, bf().Mul(b.im, b.im))
	n := a.mul(bigc{b.re, bf().Neg(b.im)})
	return bigc{n.re.Quo(n.re, d), n.im.Quo(n.im, d)}
}

func (a bigc) pow(n int) bigc {
	out, sq := bc(1), a
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			out = out.mul(sq)
		}
		sq = sq.mul(sq)
	}
	return out
}

func (a bigc) complex128() complex128 {
	re, _ := a.re.Float64()
	im, _ := a.im.Float64()
	return complex(re, im)
}

// ilogb returns the binary exponent of a's larger component, or MinInt32
// for 0, so magnitudes compare without float64's range.
func (a bigc) ilogb() int {
	e := math.MinInt32
	for _, x := range []*big.Float{a.re, a.im} {
		if x.Sign() != 0 {
			e = max(e, x.MantExp(nil))
		}
	}
	return e
}

// absFloat returns |a| as a big.Float.
func (a bigc) absFloat() *big.Float {
	s := bf().Mul(a.re, a.re)
	s.Add(s, bf().Mul(a.im, a.im))
	return s.Sqrt(s)
}

// bigExp returns e^z at z's precision: the Taylor series at z/2^k with
// |z/2^k| < 2^-16, squared k times, in a working precision k+32 bits above
// z's, since each squaring doubles the relative error.
func bigExp(z bigc) bigc {
	k := 0
	if e := z.ilogb(); e > math.MinInt32 {
		k = max(0, e+16)
	}
	prec := z.prec() + uint(k) + 32
	f := func() *big.Float { return new(big.Float).SetPrec(prec) }
	yr, yi := f().SetMantExp(z.re, -k), f().SetMantExp(z.im, -k)
	sr, si, tr, ti := f().SetInt64(1), f(), f().SetInt64(1), f()
	a, b, c, n := f(), f(), f(), f()
	small := func(x *big.Float) bool { return x.Sign() == 0 || x.MantExp(nil) < -int(prec)-8 }
	for i := int64(1); !small(tr) || !small(ti); i++ {
		// term *= y/i
		n.SetInt64(i)
		a.Mul(tr, yr)
		b.Mul(ti, yi)
		c.Mul(tr, yi)
		ti.Mul(ti, yr)
		ti.Add(ti, c).Quo(ti, n)
		tr.Sub(a, b).Quo(tr, n)
		sr.Add(sr, tr)
		si.Add(si, ti)
	}
	for ; k > 0; k-- {
		a.Mul(sr, sr)
		b.Mul(si, si)
		si.Mul(si, sr)
		si.Add(si, si)
		sr.Sub(a, b)
	}
	return bigc{sr, si}.at(z.prec())
}

// bigNewton runs Newton's method on f from z, at z's precision p, until a
// step is below 2^-(p-48) of |z| (or is 0): the last bits of the precision
// are rounding, amplified near saturation by the root's condition number
// (up to ~2^30). It reports whether it got there in 200 steps. f returns
// h(z) and h'(z).
func bigNewton(f func(bigc) (bigc, bigc), z bigc) (bigc, bool) {
	tol := int(z.prec()) - 48
	for range 200 {
		h, dh := f(z)
		if dh.ilogb() == math.MinInt32 {
			return z, false
		}
		step := h.quo(dh)
		z = z.sub(step)
		if step.ilogb() == math.MinInt32 || step.ilogb() < z.ilogb()-tol {
			return z, true
		}
	}
	return z, false
}

// bigUnitRoot returns e^{2*pi*i*j/n} at oraclePrec: Newton on w^n = 1 from
// its float64 value.
func bigUnitRoot(j, n int) bigc {
	th := 2 * math.Pi * float64(j) / float64(n)
	w, ok := bigNewton(func(w bigc) (bigc, bigc) {
		p := w.pow(n - 1)
		return p.mul(w).sub(bc(1)), p.mul(bc(complex(float64(n), 0)))
	}, bc(complex(math.Cos(th), math.Sin(th))).at(oraclePrec))
	if !ok {
		panic(fmt.Sprintf("unit root %d/%d did not converge", j, n))
	}
	return w
}

// dek1OracleRoot returns the root of branch k of eq. (26) for the float64
// load rho, given unit = omega_k = bigUnitRoot(k-1, K): Newton on
// h(z) = z - omega_k e^{(z-1)/rho} from g_k(0), first at rampPrec. Each
// branch has one root in Re z < 1, which the result must lie in. Where
// |g_k(0)| = e^{-1/rho} is below 2^-1200, far below float64's range, the
// root is g_k(0) itself to beyond the oracle's precision, since
// g_k(z)/g_k(0) = e^{z/rho}; it is returned as is, because big.Float adds
// numbers of distant magnitude at the cost of their exponent difference.
func dek1OracleRoot(rho float64, k, K int, unit bigc) (bigc, error) {
	br := bc(complex(rho, 0))
	newton := func(z bigc) (bigc, bool) {
		om := unit.at(z.prec())
		return bigNewton(func(z bigc) (bigc, bigc) {
			gz := om.mul(bigExp(z.sub(bc(1)).quo(br)))
			return z.sub(gz), bc(1).sub(gz.quo(br))
		}, z)
	}
	seed := unit.mul(bigExp(bc(-1).at(oraclePrec).quo(br)))
	if seed.ilogb() < -1200 {
		return seed, nil
	}
	z, ok := newton(seed.at(rampPrec))
	if ok {
		z, ok = newton(z.at(oraclePrec))
	}
	if !ok || z.re.Cmp(bf().SetInt64(1)) >= 0 {
		return z, fmt.Errorf("oracle root %d (K=%d rho=%v) did not converge in Re z < 1: %v", k, K, rho, z.complex128())
	}
	return z, nil
}

// mek1OracleRoot returns a root of P(u) = u^K(1+a-u) - a: for branch 1
// the real root in (0, u*), u* = K(1+a)/(K+1) the maximum of u^K(1+a-u),
// where P(0) = -a < 0 < P(u*) for rho = Ka < 1, by bisection (P's other
// positive root, u = 1, lies above u*); for the others the root Newton
// reaches from the float64 root u.
func mek1OracleRoot(a float64, K, k int, u complex128) (bigc, error) {
	ba := bc(complex(a, 0))
	onePlusA := bc(1).at(oraclePrec).add(ba)
	kk := bc(complex(float64(K), 0))
	if k == 1 {
		lo := new(big.Float).SetPrec(oraclePrec)
		hi := bf().Quo(bf().Mul(onePlusA.re, kk.re), bf().SetInt64(int64(K+1)))
		for range oraclePrec + 16 {
			mid := bf().Add(lo, hi)
			mid.SetMantExp(mid, -1)
			m := bigc{mid, bf()}
			if m.pow(K).mul(onePlusA.sub(m)).sub(ba).re.Sign() < 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return bigc{lo, bf()}, nil
	}
	z, ok := bigNewton(func(u bigc) (bigc, bigc) {
		w := onePlusA.sub(u)
		p := u.pow(K - 1)
		return p.mul(u).mul(w).sub(ba), p.mul(kk.mul(w).sub(u))
	}, bc(u).at(oraclePrec))
	if !ok {
		return z, fmt.Errorf("oracle root from %v (K=%d a=%v) did not converge", u, K, a)
	}
	return z, nil
}

// relErr returns |got - want|/|want| in big arithmetic, +Inf for want = 0
// and got != 0, and 0 when both are 0.
func relErr(got complex128, want bigc) float64 {
	d := bc(got).sub(want)
	if d.ilogb() == math.MinInt32 {
		return 0
	}
	if want.ilogb() == math.MinInt32 {
		return math.Inf(1)
	}
	r, _ := bf().Quo(d.absFloat(), want.absFloat()).Float64()
	return r
}

// absErr returns |got - want| as a float64 (0 where it underflows). A want
// below 2^-1100 counts as 0, so big.Float does not align it with got.
func absErr(got complex128, want bigc) float64 {
	if want.ilogb() < -1100 {
		return cmplx.Abs(got)
	}
	r, _ := bc(got).sub(want).absFloat().Float64()
	return r
}

// rootTol bounds a float64 root's distance to the oracle's: rootTol * eps *
// cond relative, plus the smallest normal float64 absolute, the floor under
// which a root has underflowed.
const rootTol = 4

// loadRegions are the load regions the root tests report, each up to (not
// including) its upper end.
var loadRegions = [...]struct {
	name  string
	upper float64
}{
	{"rho < 0.1", 0.1},
	{"0.1 <= rho < 0.9", 0.9},
	{"0.9 <= rho < 0.999", 0.999},
	{"0.999 <= rho < 1-1e-5", 1 - 1e-5},
	{"1-1e-5 <= rho < 1-1e-7", 1 - 1e-7},
	{"rho >= 1-1e-7", math.Inf(1)},
}

// rootLog checks float64 roots against the oracle and collects, per load
// region, the worst relative error of the roots and of one minus them, the
// variable the poles are formed from (alpha = beta(1-zeta) for D/E_K/1,
// p = beta(1-u) for M/E_K/1), and the largest share of its bound a root
// used.
type rootLog struct {
	root, pole [len(loadRegions)]float64
	where      [len(loadRegions)]string
	share      float64
}

// check holds got within rootTol * eps * cond of the oracle root want,
// relative, and logs its errors.
func (l *rootLog) check(t *testing.T, rho float64, name string, got complex128, want bigc, cond float64) {
	t.Helper()
	w := want.complex128()
	bound := rootTol*0x1p-52*cond*cmplx.Abs(w) + 0x1p-1022
	d := absErr(got, want)
	if !(d <= bound) {
		t.Errorf("%s: %v is %.3g from the oracle's %v, relative (bound %.3g)",
			name, got, relErr(got, want), w, rootTol*0x1p-52*cond)
	}
	l.share = max(l.share, d/bound)
	if want.ilogb() < -1021 {
		return // underflowed: no relative error to speak of
	}
	r := 0
	for rho >= loadRegions[r].upper {
		r++
	}
	l.root[r] = max(l.root[r], relErr(got, want))
	if e := relErr(1-got, bc(1).sub(want)); e > l.pole[r] {
		l.pole[r] = e
		l.where[r] = name
	}
}

func (l *rootLog) report(t *testing.T, queue string) {
	var b strings.Builder
	for r, region := range loadRegions {
		fmt.Fprintf(&b, "\n  %-23s root %.3g, 1-root %.3g (%s)", region.name, l.root[r], l.pole[r], l.where[r])
	}
	t.Logf("%s worst relative error against the oracle, largest share of the bound %.3g:%s", queue, l.share, b.String())
}

// rootLoads is the load grid of the root tests: a vanishing load to 1e-9
// below saturation.
func rootLoads() []float64 {
	loads := []float64{1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.03}
	for i := 1; i <= 19; i++ {
		loads = append(loads, float64(i)/20)
	}
	loads = append(loads, 0.35/1.05, 0.48, 0.97, 0.98, 0.99, 0.995)
	for e := 3; e <= 9; e++ {
		loads = append(loads, 1-math.Pow(10, -float64(e)))
	}
	return loads
}

// rootOrders is the Erlang-order axis of the root tests, K 1-200.
var rootOrders = []int{1, 2, 3, 5, 9, 12, 17, 18, 20, 23, 30, 50, 100, 200}

// TestMEK1SolveMatchesOracle checks the M/E_K/1 root solve, K 1-200 over
// the root load grid, against the oracle. Every solved root is within
// rootTol * eps * cond of the oracle's, relative, with
// cond = (1 + |ln g_k(u)|)/|1 - u/(K(1+a-u))|, the exponent the map
// evaluates times the inverse Newton derivative. The oracle roots are
// distinct and the complex ones lie in the upper half plane, so with their
// conjugates they are the K roots. Up to rho = 1-1e-4 every solve succeeds
// and its wait law is served; nearer saturation cond grows as 1/(1-rho),
// and the law may be rejected (Validate's mass check) or the solve may
// fail (the real root polished past u = 1).
func TestMEK1SolveMatchesOracle(t *testing.T) {
	log := &rootLog{}
	rejected := 0
	for _, k := range rootOrders {
		for _, rho := range rootLoads() {
			q, err := NewMEK1(rho, k, float64(k))
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("K=%d rho=%v", k, rho)
			sol, err := q.Solve()
			if err == nil {
				_, err = sol.WaitMix()
			}
			if err != nil {
				rejected++
				if rho <= 1-1e-4 {
					t.Errorf("%s: %v", name, err)
				}
				if sol == nil {
					continue
				}
			}
			a := q.Lambda / q.Beta
			kk := complex(float64(k), 0)
			oracle := make([]complex128, len(sol.us))
			for i, u := range sol.us {
				want, err := mek1OracleRoot(a, k, i+1, u)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w := want.complex128()
				oracle[i] = w
				if i > 0 && 2*i != k && !(imag(w) > 0) {
					t.Errorf("%s root %d: oracle root %v is not in the upper half plane", name, i+1, w)
				}
				g, _ := q.rootMap(i + 1)(w)
				cond := (1 + cmplx.Abs(cmplx.Log(g))) / cmplx.Abs(1-w/(kk*(complex(a, 0)+1-w)))
				log.check(t, rho, fmt.Sprintf("%s root %d", name, i+1), u, want, cond)
			}
			for i, a := range oracle {
				for j, b := range oracle[:i] {
					if !(cmplx.Abs(a-b) > 1e-12*cmplx.Abs(a)) {
						t.Errorf("%s: roots %d and %d reach one oracle root %v", name, j+1, i+1, a)
					}
				}
			}
		}
	}
	log.report(t, "M/E_K/1")
	t.Logf("M/E_K/1: %d of %d laws rejected, all above rho = 1-1e-4", rejected, len(rootOrders)*len(rootLoads()))
}
