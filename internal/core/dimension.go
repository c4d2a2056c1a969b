package core

import (
	"fmt"
	"math"
)

// DimensioningResult reports how much gaming traffic an aggregation link can
// carry under an RTT bound: the paper's §4 "dimensioning rule".
type DimensioningResult struct {
	// MaxDownlinkLoad is the largest rho_d keeping the RTT quantile within
	// the bound.
	MaxDownlinkLoad float64
	// MaxGamers is Nmax = floor(rho_max * T * C / (8 * PS)), eq. (37)
	// inverted.
	MaxGamers int
	// RTTAtMax is the RTT quantile at MaxDownlinkLoad.
	RTTAtMax float64
	// Bound echoes the RTT bound used.
	Bound float64
}

// PointEval evaluates the model's RTT quantile (seconds) at downlink load
// rho. It is the dimensioning bisection's extension point: MaxLoad plugs in
// a direct RTTQuantile evaluation, while a caching front end (the daemon's
// Engine.Dimension) plugs in a memoized one, so repeated bisections share
// quantile inversions instead of recomputing them. An implementation must be
// bit-identical to WithDownlinkLoad(rho).RTTQuantile() — the bisection's
// branch decisions, and therefore its answer, follow the returned values
// exactly.
type PointEval func(rho float64) (float64, error)

// MaxLoad finds the largest downlink load whose RTT quantile stays within
// rttBound, by bisection over the load (the quantile is monotone increasing
// in load). The search respects both directions' stability limits: with
// PS < PC the uplink saturates first (§4 notes the crossover at downlink
// load PS/PC).
func (m Model) MaxLoad(rttBound float64) (DimensioningResult, error) {
	return m.MaxLoadWith(rttBound, nil)
}

// MaxLoadWith is MaxLoad with the per-load quantile evaluation delegated to
// rttAt (nil means the direct evaluation). The probe sequence — lo and the
// stability ceiling first, then the midpoints — is identical whatever the
// evaluator, so a memoizing rttAt changes only where the numbers come from,
// never what they are.
func (m Model) MaxLoadWith(rttBound float64, rttAt PointEval) (DimensioningResult, error) {
	if !(rttBound > 0) {
		return DimensioningResult{}, fmt.Errorf("%w: rtt bound %g", ErrBadModel, rttBound)
	}
	probe := m
	probe.Gamers = 1
	if err := probe.Validate(); err != nil {
		return DimensioningResult{}, err
	}
	if m.FixedPart() >= rttBound {
		return DimensioningResult{}, fmt.Errorf(
			"core: fixed delay %.4gms alone exceeds the bound %.4gms",
			1e3*m.FixedPart(), 1e3*rttBound)
	}

	// Stability ceiling on the downlink load: downlink itself (rho_d < 1)
	// and the uplink, which reaches load 1 at rho_d = (PS/PC)*(D/T).
	ceil := 1.0
	if upCeil := (m.ServerPacketBytes / m.ClientPacketBytes) *
		(m.clientInterval() / m.BurstInterval); upCeil < ceil {
		ceil = upCeil
	}
	ceil -= 1e-6

	if rttAt == nil {
		// The bisection's probes are neighbours on the load axis, so drive
		// them through one LoadPath: each probe's root solve continues from
		// the previous probe and its inversion reuses the path's workspace,
		// bit-identical to the direct evaluation (the LoadPath contract).
		path := m.NewLoadPath()
		rttAt = func(rho float64) (float64, error) {
			pt, err := path.Point(rho)
			return pt.RTT, err
		}
	}

	lo := 1e-6
	v, err := rttAt(lo)
	if err != nil {
		return DimensioningResult{}, err
	}
	if v > rttBound {
		return DimensioningResult{}, fmt.Errorf(
			"core: RTT %.4gms at vanishing load already exceeds bound %.4gms",
			1e3*v, 1e3*rttBound)
	}
	hi := ceil
	vhi, err := rttAt(hi)
	if err != nil {
		return DimensioningResult{}, err
	}
	if vhi <= rttBound {
		// Bound never binds before instability.
		res := m.WithDownlinkLoad(hi)
		return DimensioningResult{
			MaxDownlinkLoad: hi,
			MaxGamers:       int(math.Floor(res.Gamers)),
			RTTAtMax:        vhi,
			Bound:           rttBound,
		}, nil
	}
	for i := 0; i < 100; i++ {
		mid := lo + (hi-lo)/2
		v, err := rttAt(mid)
		if err != nil {
			return DimensioningResult{}, err
		}
		if v <= rttBound {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-6 {
			break
		}
	}
	// lo is always a load the bisection already probed (it starts at the
	// vanishing-load probe and only ever moves to an accepted midpoint), so
	// a memoizing evaluator answers this final call from its cache.
	at := m.WithDownlinkLoad(lo)
	rtt, err := rttAt(lo)
	if err != nil {
		return DimensioningResult{}, err
	}
	return DimensioningResult{
		MaxDownlinkLoad: lo,
		MaxGamers:       int(math.Floor(at.Gamers)),
		RTTAtMax:        rtt,
		Bound:           rttBound,
	}, nil
}

// MaxGamers is the paper's closing formula: the whole-gamer count supported
// under the bound.
func (m Model) MaxGamers(rttBound float64) (int, error) {
	res, err := m.MaxLoad(rttBound)
	if err != nil {
		return 0, err
	}
	return res.MaxGamers, nil
}
