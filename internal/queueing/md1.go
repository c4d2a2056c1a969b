// Package queueing implements the queueing models of the paper's §3: the
// upstream M/D/1 and M/G/1 queue (with the N*D/D/1 large-deviations
// estimates it is justified from, eqs. 2-12), and the downstream D/E_K/1
// queue solved exactly through its moment generating function (§3.2,
// appendices B-D), plus Lindley-recursion simulators used to validate every
// analytic result.
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

// WaitMixAsymptotic returns the dominant-pole form with the exact asymptotic
// residue R = (1-rho)/(lambda*S*e^{gamma*S} - 1), so the deep tail
// P(W > x) ~ R e^{-gamma x} is exact. It is the ablation counterpart of
// WaitMixPaper (which uses the cruder residue rho).
func (q MD1) WaitMixAsymptotic() (mgf.Mix, error) {
	g, err := q.DominantPole()
	if err != nil {
		return mgf.Mix{}, err
	}
	rho := q.Load()
	r := (1 - rho) / (q.Lambda*q.S*math.Exp(g*q.S) - 1)
	m := mgf.NewExponential(r, g)
	m.Atom = 1 - r
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
		m, err := q.WaitMixAsymptotic()
		if err != nil {
			return math.NaN()
		}
		return 1 - m.Tail(t)
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

// ServiceSpec describes one service-time class for the M/G/1 queue: a
// deterministic transmission time (packet size over link rate) and the
// fraction of arrivals in the class. Eq. (13) introduces exactly this
// two-class case for mixed gamer populations.
type ServiceSpec struct {
	S      float64 // deterministic service time of the class, s
	Weight float64 // fraction of arrivals, must sum to 1 across classes
}

// MG1 is an M/G/1 queue whose service law is a finite mixture of
// deterministic times (the "flip a coin per arrival" model under eq. 13).
type MG1 struct {
	Lambda  float64
	Classes []ServiceSpec
}

// NewMG1 validates rates, weights and stability.
func NewMG1(lambda float64, classes []ServiceSpec) (MG1, error) {
	if !(lambda > 0) || len(classes) == 0 {
		return MG1{}, fmt.Errorf("%w: lambda=%g classes=%d", ErrBadParam, lambda, len(classes))
	}
	var wsum float64
	for _, c := range classes {
		if !(c.S > 0) || !(c.Weight > 0) {
			return MG1{}, fmt.Errorf("%w: class %+v", ErrBadParam, c)
		}
		wsum += c.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		return MG1{}, fmt.Errorf("%w: class weights sum to %g", ErrBadParam, wsum)
	}
	q := MG1{Lambda: lambda, Classes: classes}
	if q.Load() >= 1 {
		return MG1{}, fmt.Errorf("%w: rho=%g", ErrUnstable, q.Load())
	}
	return q, nil
}

// MeanService returns E[S].
func (q MG1) MeanService() float64 {
	var m float64
	for _, c := range q.Classes {
		m += c.Weight * c.S
	}
	return m
}

// SecondMomentService returns E[S^2].
func (q MG1) SecondMomentService() float64 {
	var m float64
	for _, c := range q.Classes {
		m += c.Weight * c.S * c.S
	}
	return m
}

// Load returns rho = lambda*E[S].
func (q MG1) Load() float64 { return q.Lambda * q.MeanService() }

// MeanWait returns the Pollaczek-Khinchine mean lambda*E[S^2]/(2(1-rho)).
func (q MG1) MeanWait() float64 {
	return q.Lambda * q.SecondMomentService() / (2 * (1 - q.Load()))
}

// serviceMGF evaluates E[e^{sS}] for real s.
func (q MG1) serviceMGF(s float64) float64 {
	var v float64
	for _, c := range q.Classes {
		v += c.Weight * math.Exp(s*c.S)
	}
	return v
}

// DominantPole returns the positive root gamma of
// gamma = lambda*(B(gamma) - 1), where B is the service MGF.
func (q MG1) DominantPole() (float64, error) {
	f := func(g float64) float64 { return q.Lambda*(q.serviceMGF(g)-1) - g }
	rho := q.Load()
	hi := 2 * (1 - rho) / (rho * q.MeanService())
	for i := 0; i < 200 && f(hi) < 0; i++ {
		hi *= 2
	}
	lo := hi
	for i := 0; i < 200 && f(lo) > 0; i++ {
		lo /= 2
	}
	if f(lo) > 0 || f(hi) < 0 {
		return 0, fmt.Errorf("queueing: MG1 dominant pole bracket failed (rho=%g)", rho)
	}
	return xmath.Brent(f, lo, hi, 1e-14*hi)
}

// WaitMixPaper returns eq. (14) for the M/G/1 queue:
// (1-rho) + rho*gamma/(gamma-s).
func (q MG1) WaitMixPaper() (mgf.Mix, error) {
	g, err := q.DominantPole()
	if err != nil {
		return mgf.Mix{}, err
	}
	rho := q.Load()
	m := mgf.NewExponential(rho, g)
	m.Atom = 1 - rho
	return m, nil
}
