package core

import "fpsping/internal/queueing"

// LoadPath walks one scenario along the load axis, carrying the downstream
// D/E_K/1 root solution from point to point: it seeds the next compile's
// Newton polish instead of a cold fixed-point iteration
// (queueing.DEK1.SolveFrom). The quantile inversion carries nothing: each
// one seeds its bracket walk from its own law's factors (see mgf.Quantile).
//
// LoadPath is the only warm handle in the package: every other evaluation
// is a one-shot form. The continuation is bit-exact: a point evaluated
// through a path is byte-identical to WithDownlinkLoad(rho).RTTQuantile()
// evaluated cold, so a path changes only the cost of a walk, never its
// values. Sweeps (SweepGridWith chunks), dimensioning searches
// (MaxLoadWith) and the daemon's memoized grids all drive their points
// through one.
//
// Continuation does not require monotone loads — any neighbouring parameter
// is a good Newton seed, and validation falls back to the cold solve on any
// doubt — but monotone walks converge fastest. A LoadPath is NOT safe for
// concurrent use: parallel walkers each hold their own (the chunked
// SweepGridWith builds one per chunk).
type LoadPath struct {
	m    Model
	prev *queueing.DEK1Solution
}

// NewLoadPath starts a load-axis walk over the model's scenario (Gamers is
// overridden per point via WithDownlinkLoad).
func (m Model) NewLoadPath() *LoadPath { return &LoadPath{m: m} }

// Compile stages the model at downlink load rho, warm-starting the
// downstream root solve from the previous point on the path, and adopts the
// resulting solution as the seed for the next point.
func (p *LoadPath) Compile(rho float64) (*CompiledModel, error) {
	cm, err := p.m.WithDownlinkLoad(rho).compileFrom(p.prev)
	if err != nil {
		return nil, err
	}
	p.prev = cm.sol
	return cm, nil
}

// Reseed adopts an externally produced compiled model — typically a memo
// hit that skipped this path's Compile — as the continuation seed for the
// next point, so a walk over partially cached loads keeps warm-starting.
func (p *LoadPath) Reseed(cm *CompiledModel) {
	if cm != nil && cm.sol != nil {
		p.prev = cm.sol
	}
}

// Point evaluates one sweep point at downlink load rho: a Compile
// warm-started from the path's previous point, plus its RTT quantile.
func (p *LoadPath) Point(rho float64) (SweepPoint, error) {
	cm, err := p.Compile(rho)
	if err != nil {
		return SweepPoint{}, err
	}
	rtt, err := cm.RTTQuantile()
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Load: rho, Gamers: cm.Model.Gamers, RTT: rtt}, nil
}
