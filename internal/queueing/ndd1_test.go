package queueing

import (
	"fmt"
	"math"

	"fpsping/internal/xmath"
)

// ndd1 is the N*D/D/1 queue of §3.1, the reference the tests hold the
// M/D/1 uplink model against: N independent periodic sources, each
// emitting one packet of P bytes every D seconds with a uniformly random
// phase, served by a link of C bytes per second. The paper derives Chernoff /
// dominant-term ("inf sup") estimates for the stationary buffer content Q and
// shows the model converges to M/D/1 as N grows (eq. 11).
type ndd1 struct {
	N int     // number of periodic sources
	D float64 // per-source period, s
	P float64 // packet size, bytes
	C float64 // link capacity, bytes/s
}

// newNDD1 validates parameters and stability (N*P/D < C).
func newNDD1(n int, d, p, c float64) (ndd1, error) {
	if n < 1 || !(d > 0) || !(p > 0) || !(c > 0) {
		return ndd1{}, fmt.Errorf("%w: n=%d d=%g p=%g c=%g", ErrBadParam, n, d, p, c)
	}
	q := ndd1{N: n, D: d, P: p, C: c}
	if q.Load() >= 1 {
		return ndd1{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Load())
	}
	return q, nil
}

// Load returns rho = N*P/(D*C).
func (q ndd1) Load() float64 { return float64(q.N) * q.P / (q.D * q.C) }

// serviceTime returns the per-packet transmission time P/C.
func (q ndd1) serviceTime() float64 { return q.P / q.C }

// queueTailChernoff estimates log P(Q > B bytes) by the paper's eq. (10):
// the dominant-term replacement of the union over window lengths t combined
// with the binomial Chernoff bound. The inner supremum over the twist s has
// the closed form optimizer of eq. (9), which reduces the exponent to the
// binomial relative entropy N*KL(a || t/D) with a = (B + C t)/(N P). The
// outer infimum over t in (0, D] is located by golden search after a coarse
// scan.
//
// The return value is the natural logarithm of the probability estimate
// (so always <= 0); -Inf means the backlog B is unreachable.
func (q ndd1) queueTailChernoff(b float64) float64 {
	if b < 0 {
		return 0
	}
	exponent := func(t float64) float64 {
		// Required arrival fraction a in window t; infeasible -> +Inf.
		x := b + q.C*t
		a := x / (float64(q.N) * q.P)
		frac := t / q.D
		if a >= 1 {
			return math.Inf(1)
		}
		if a <= frac {
			// More than the mean arrives: probability ~ 1, exponent 0.
			return 0
		}
		return float64(q.N) * (a*math.Log(a/frac) + (1-a)*math.Log((1-a)/(1-frac)))
	}
	return -infimumOverWindow(exponent, q.D)
}

// queueTailExactBinomial estimates P(Q > B bytes) by eq. (4) with the exact
// binomial tail instead of the Chernoff bound: sup over t of
// P(Bin(N, t/D) >= k(t)) where k(t) = floor((B+Ct)/P) + 1 packets are needed
// in the window to exceed backlog B. The supremum is attained just before a
// jump of k(t), so only the jump instants need evaluation.
func (q ndd1) queueTailExactBinomial(b float64) float64 {
	if b < 0 {
		return 1
	}
	best := 0.0
	kmin := int(math.Floor(b/q.P)) + 1
	if kmin < 1 {
		kmin = 1
	}
	for k := kmin; k <= q.N; k++ {
		// Largest window with requirement still k: just before B+Ct = k*P.
		t := (float64(k)*q.P - b) / q.C
		if t <= 0 {
			continue
		}
		if t > q.D {
			t = q.D
		}
		p := binomialTail(q.N, t/q.D, k)
		if p > best {
			best = p
		}
	}
	return best
}

// queueTailPoisson estimates log P(Q > B bytes) in the Poisson (M/D/1) limit
// of eq. (12): packets arrive as a Poisson stream of rate N/D, and the
// Chernoff exponent for a window t is mu - x/p + (x/p)*log(x/(p*mu)) with
// x = B + C t and mu = N t / D.
func (q ndd1) queueTailPoisson(b float64) float64 {
	if b < 0 {
		return 0
	}
	exponent := func(t float64) float64 {
		x := b + q.C*t
		kx := x / q.P // packets needed
		mu := float64(q.N) * t / q.D
		if kx <= mu {
			return 0
		}
		return kx*math.Log(kx/mu) - kx + mu
	}
	// The Poisson model has no window bound; expand until the minimum is
	// interior.
	horizon := q.D
	val := -infimumOverWindow(exponent, horizon)
	for i := 0; i < 20; i++ {
		wider := -infimumOverWindow(exponent, horizon*2)
		if wider <= val+1e-12 {
			return val
		}
		val = wider
		horizon *= 2
	}
	return val
}

// infimumOverWindow minimizes f over (0, hi] with a coarse scan followed by
// golden-section polish around the best cell.
func infimumOverWindow(f func(float64) float64, hi float64) float64 {
	const cells = 256
	best := math.Inf(1)
	bestT := hi
	for i := 1; i <= cells; i++ {
		t := hi * float64(i) / cells
		if v := f(t); v < best {
			best = v
			bestT = t
		}
	}
	lo := bestT - hi/cells
	if lo < 1e-12*hi {
		lo = 1e-12 * hi
	}
	up := bestT + hi/cells
	if up > hi {
		up = hi
	}
	_, v := xmath.MinimizeGolden(f, lo, up, 1e-10*hi)
	if v < best {
		best = v
	}
	return best
}

// scaled returns the queue with N and D multiplied by n: the scaling regime
// of eq. (11) under which the arrival stream converges to Poisson while the
// load stays constant.
func (q ndd1) scaled(n int) (ndd1, error) {
	return newNDD1(q.N*n, q.D*float64(n), q.P, q.C)
}

// md1Limit returns the limiting M/D/1 queue of §3.1: Poisson arrivals at
// rate N/D with deterministic service P/C.
func (q ndd1) md1Limit() (MD1, error) {
	return NewMD1(float64(q.N)/q.D, q.P/q.C)
}

// binomialTail returns P(X >= k) for X ~ Binomial(n, p), 0 < p <= 1, by
// summing the point masses in log space.
func binomialTail(n int, p float64, k int) float64 {
	if p >= 1 {
		return 1
	}
	lgn, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for j := max(k, 0); j <= n; j++ {
		lgj, _ := math.Lgamma(float64(j + 1))
		lgr, _ := math.Lgamma(float64(n - j + 1))
		sum += math.Exp(lgn - lgj - lgr + float64(j)*math.Log(p) + float64(n-j)*math.Log1p(-p))
	}
	return sum
}
