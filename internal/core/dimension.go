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
// rho. It is the dimensioning search's extension point: MaxLoad plugs in a
// direct RTTQuantile evaluation, while a caching front end (the daemon's
// Engine.Dimension) plugs in a memoized one, so repeated searches share
// quantile inversions instead of recomputing them. An implementation must be
// bit-identical to WithDownlinkLoad(rho).RTTQuantile() — the search's probe
// placement and branch decisions, and therefore its answer, follow the
// returned values exactly.
type PointEval func(rho float64) (float64, error)

// loadTol is the width of the final bracket: the search stops once the
// largest feasible probe and the smallest infeasible one are closer than
// this on the load axis.
const loadTol = 1e-6

// ITP parameters (Oliveira & Takahashi, "An Enhancement of the Bisection
// Method Average Performance Preserving Minmax Optimality", ACM TOMS 2020):
// itpN0 is the number of probes the search may spend beyond bisection's
// count, and the truncation step is itpKappa1/(hi0-lo0) * width^itpKappa2.
const (
	itpN0     = 1
	itpKappa1 = 0.2
	itpKappa2 = 2
)

// MaxLoad finds the largest downlink load whose RTT quantile stays within
// rttBound (the quantile is monotone increasing in load). The search
// respects both directions' stability limits: with PS < PC the uplink
// saturates first (§4 notes the crossover at downlink load PS/PC).
func (m Model) MaxLoad(rttBound float64) (DimensioningResult, error) {
	return m.MaxLoadWith(rttBound, nil)
}

// MaxLoadWith is MaxLoad with the per-load quantile evaluation delegated to
// rttAt (nil means the direct evaluation). It probes the vanishing load and
// the stability ceiling first, then narrows the bracket between the
// largest feasible and the smallest infeasible probe with ITP until it is
// narrower than 1e-6, and returns the feasible end. The probe sequence is a
// function of the returned values alone, so a memoizing rttAt changes only
// where the numbers come from, never what they are, and the closing
// evaluation at the returned load re-asks a probed point.
//
// Each ITP probe starts from the secant root of f = log((q-F)/(bound-F))
// against z = logit(rho/top), where q is the quantile, F the fixed delay
// and top the stability ceiling: the queueing part of q grows like rho at
// low load and like 1/(1-rho/top) near the ceiling, so f is close to
// linear in z. The secant runs through the bracket ends, with the Illinois
// rule keeping the far ceiling probe from pinning it. ITP's truncation and
// projection steps then keep the search within bisection's guarantee: at
// most one probe more than bisection's 20, whatever the function (a step,
// a flat stretch at F, a non-finite f, where the secant gives way to the
// midpoint). On the §4 scenarios a search makes about ten evaluations.
func (m Model) MaxLoadWith(rttBound float64, rttAt PointEval) (DimensioningResult, error) {
	if !(rttBound > 0) {
		return DimensioningResult{}, fmt.Errorf("%w: rtt bound %g", ErrBadModel, rttBound)
	}
	probe := m
	probe.Gamers = 1
	if err := probe.Validate(); err != nil {
		return DimensioningResult{}, err
	}
	fixed := m.FixedPart()
	if fixed >= rttBound {
		return DimensioningResult{}, fmt.Errorf(
			"core: fixed delay %.4gms alone exceeds the bound %.4gms",
			1e3*fixed, 1e3*rttBound)
	}

	// Stability ceiling on the downlink load: downlink itself (rho_d < 1)
	// and the uplink, which reaches load 1 at rho_d = (PS/PC)*(D/T).
	top := 1.0
	if upCeil := (m.ServerPacketBytes / m.ClientPacketBytes) *
		(m.clientInterval() / m.BurstInterval); upCeil < top {
		top = upCeil
	}
	ceil := top - 1e-6

	if rttAt == nil {
		rttAt = func(rho float64) (float64, error) {
			return m.WithDownlinkLoad(rho).RTTQuantile()
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

	// ITP narrows [lo, hi] around the root of f. nHalf is bisection's
	// probe count to a bracket narrower than loadTol; ITP keeps the bracket
	// after probe j within eps*2^(nMax-j), so it ends within nMax probes.
	f := func(q float64) float64 { return math.Log((q - fixed) / (rttBound - fixed)) }
	z := func(rho float64) float64 { return math.Log(rho / (top - rho)) }
	flo, fhi := f(v), f(vhi)
	w0 := hi - lo
	nHalf := 0
	for w := w0; w >= loadTol; w /= 2 {
		nHalf++
	}
	eps := math.Ldexp(w0, -nHalf-1)
	nMax := nHalf + itpN0
	// moved is the end the previous probe replaced (-1 lo, +1 hi). When a
	// probe replaces the same end twice running, the other end's f is
	// halved (the Illinois rule), so a secant pinned to a far, steep end —
	// the ceiling probe — swings over the root instead of creeping up on it.
	moved := 0
	for j := 0; hi-lo >= loadTol; j++ {
		w := hi - lo
		mid := lo + w/2
		x := mid
		// Interpolate: the secant's root in z, mapped back to a load. A
		// non-finite f or a secant root outside (lo, hi) leaves the midpoint.
		zlo, zhi := z(lo), z(hi)
		xf := top / (1 + math.Exp(-(zlo*fhi-zhi*flo)/(fhi-flo)))
		if lo < xf && xf < hi {
			// Truncate: step toward the midpoint by delta ...
			sigma := math.Copysign(1, mid-xf)
			xt := mid
			if delta := itpKappa1 / w0 * math.Pow(w, itpKappa2); delta <= math.Abs(mid-xf) {
				xt = xf + sigma*delta
			}
			// ... and project onto the minmax disc around the midpoint.
			r := max(0, math.Ldexp(eps, nMax-j)-w/2)
			if math.Abs(xt-mid) <= r {
				x = xt
			} else {
				x = mid - sigma*r
			}
		}
		v, err := rttAt(x)
		if err != nil {
			return DimensioningResult{}, err
		}
		if v <= rttBound {
			lo, flo = x, f(v)
			if moved < 0 {
				fhi /= 2
			}
			moved = -1
		} else {
			hi, fhi = x, f(v)
			if moved > 0 {
				flo /= 2
			}
			moved = 1
		}
	}
	// lo is always a load the search already probed (it starts at the
	// vanishing-load probe and only ever moves to a feasible probe), so a
	// memoizing evaluator answers this final call from its cache.
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
