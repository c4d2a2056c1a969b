// Package queueing implements the queueing models of the paper's §3: the
// upstream M/D/1 queue, which §3.1 justifies from the N*D/D/1
// large-deviations estimates of eqs. 2-12, and the downstream D/E_K/1
// queue solved exactly through its moment generating function (§3.2,
// appendices B-D). The package's tests keep the N*D/D/1 estimates and the
// Lindley-recursion simulators that validate every analytic result.
//
// Conventions: times are in seconds, rates in events (or bits) per second;
// load rho must be < 1 for every stationary quantity.
package queueing

import (
	"errors"
	"fmt"
	"math"

	"fpsping/internal/mgf"
	"fpsping/internal/xmath"
)

// ErrUnstable reports a queue with offered load >= 1.
var ErrUnstable = errors.New("queueing: load >= 1, queue unstable")

// ErrBadParam reports an invalid queue parameter.
var ErrBadParam = errors.New("queueing: invalid parameter")

// MD1 is the M/D/1 queue: Poisson arrivals at rate Lambda (1/s), each
// requiring a deterministic service time S (s). The paper's §3.1 shows the
// upstream aggregate of many periodic gaming sources converges to this model.
type MD1 struct {
	Lambda float64 // arrival rate, 1/s
	S      float64 // deterministic service time, s
}

// NewMD1 validates the parameters and stability.
func NewMD1(lambda, s float64) (MD1, error) {
	if !(lambda > 0) || !(s > 0) {
		return MD1{}, fmt.Errorf("%w: lambda=%g s=%g", ErrBadParam, lambda, s)
	}
	q := MD1{Lambda: lambda, S: s}
	if q.Load() >= 1 {
		return MD1{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Load())
	}
	return q, nil
}

// Load returns rho = lambda*S.
func (q MD1) Load() float64 { return q.Lambda * q.S }

// MeanWait returns the Pollaczek-Khinchine mean waiting time
// lambda*E[S^2]/(2(1-rho)) = rho*S/(2(1-rho)).
func (q MD1) MeanWait() float64 {
	rho := q.Load()
	return rho * q.S / (2 * (1 - rho))
}

// DominantPole returns the decay rate gamma of the waiting-time tail: the
// unique positive root of gamma = lambda*(e^{gamma*S} - 1). It is the
// "dominant pole of the exact moment generating function" of eq. (14).
func (q MD1) DominantPole() (float64, error) {
	rho := q.Load()
	f := func(g float64) float64 { return q.Lambda*(math.Exp(g*q.S)-1) - g }
	// f(0)=0 with f'(0)=rho-1<0 and f -> +inf: bracket the positive root.
	// A useful analytic starting bracket: gamma <= 2(1-rho)/(rho*S) from the
	// quadratic lower bound on exp, expand upward if needed.
	hi := 2 * (1 - rho) / (rho * q.S)
	for i := 0; i < 200 && f(hi) < 0; i++ {
		hi *= 2
	}
	lo := hi
	for i := 0; i < 200 && f(lo) > 0; i++ {
		lo /= 2
	}
	if f(lo) > 0 || f(hi) < 0 {
		return 0, fmt.Errorf("queueing: dominant pole bracket failed (rho=%g)", rho)
	}
	// At low loads the analytic bound is so loose that f(hi) overflows, or
	// grows large enough to overflow Brent's interpolation, and the solve
	// returns NaN or the far end. The last halving step is then the
	// tighter upper end: f(2 lo) > 0 by the loop above.
	if f(hi) > 1e100 {
		hi = 2 * lo
	}
	g, err := xmath.Brent(f, lo, hi, 1e-14*hi)
	if err != nil {
		return 0, err
	}
	return g, nil
}

// WaitMixPaper returns the paper's eq. (14) approximation of the waiting
// time MGF: Du(s) = (1-rho) + rho*gamma/(gamma-s).
func (q MD1) WaitMixPaper() (mgf.Mix, error) {
	g, err := q.DominantPole()
	if err != nil {
		return mgf.Mix{}, err
	}
	rho := q.Load()
	m := mgf.NewExponential(rho, g)
	m.Atom = 1 - rho
	return m, nil
}

// WaitCDFExact evaluates the classical closed-form M/D/1 virtual waiting time
// distribution (Erlang's alternating series):
//
//	P(W <= t) = (1-rho) * sum_{j=0..floor(t/S)} e^{-lambda(jS-t)} (lambda(jS-t))^j / j!
//
// with lambda(jS-t) <= 0 in every term. The terms grow to ~e^{lambda*t}
// before cancelling, so the series loses about lambda*t*log10(e) digits; it
// is evaluated only while lambda*t <= 30 (then the result keeps >= 2 digits
// beyond any tail level down to 1e-12). Past that point the dominant-pole
// asymptote is used, which is accurate to well under a percent there.
func (q MD1) WaitCDFExact(t float64) float64 {
	if t < 0 {
		return 0
	}
	rho := q.Load()
	if q.Lambda*t > 30 {
		// Dominant-pole asymptote with the exact residue
		// R = (1-rho)/(lambda*S*e^{gamma*S} - 1): P(W > t) ~ R e^{-gamma t}.
		g, err := q.DominantPole()
		if err != nil {
			return math.NaN()
		}
		r := (1 - rho) / (q.Lambda*q.S*math.Exp(g*q.S) - 1)
		return 1 - r*math.Exp(-g*t)
	}
	k := int(math.Floor(t / q.S))
	var sum xmath.KahanSum
	for j := 0; j <= k; j++ {
		u := q.Lambda * (t - float64(j)*q.S) // >= 0; term = e^u (-u)^j / j!
		var mag float64
		if j == 0 {
			mag = math.Exp(u)
		} else if u == 0 {
			mag = 0
		} else {
			lg, _ := math.Lgamma(float64(j + 1))
			mag = math.Exp(u + float64(j)*math.Log(u) - lg)
			if j%2 == 1 {
				mag = -mag
			}
		}
		sum.Add(mag)
	}
	v := (1 - rho) * sum.Sum()
	return xmath.Clamp(v, 0, 1)
}

// WaitTailExact is 1 - WaitCDFExact.
func (q MD1) WaitTailExact(t float64) float64 { return 1 - q.WaitCDFExact(t) }
