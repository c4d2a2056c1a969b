package core

import (
	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
)

// LoadPath walks one scenario along the load axis, carrying what a point's
// evaluation can reuse from its neighbour:
//
//   - the downstream D/E_K/1 root solution, seeding the next compile's
//     Newton polish instead of a cold fixed-point iteration
//     (queueing.DEK1.SolveFrom);
//   - one mgf.Workspace, whose quadrature grids and ladder buffers
//     consecutive inversions reuse instead of a pool round-trip per point.
//
// The quantile inversion itself carries nothing from point to point: each
// one seeds its bracket walk from its own law's factors (see mgf.Quantile).
//
// LoadPath is the only warm handle in the package: every other evaluation
// is a one-shot form. Both carriers are bit-exact: a point evaluated
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
	ws   mgf.Workspace
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

// Quantile evaluates cm's RTT quantile (seconds), exactly as
// cm.RTTQuantile(), through the path's workspace. cm need not have come
// from this path's Compile: a memoized compiled model works too (a level it
// has already solved is answered from its cache).
func (p *LoadPath) Quantile(cm *CompiledModel) (float64, error) {
	q, err := cm.law.quantile(cm.Model.quantile(), &p.ws)
	if err != nil {
		return 0, err
	}
	return q + cm.Model.FixedPart(), nil
}

// Point evaluates one sweep point at downlink load rho: a Compile
// warm-started from the path's previous point, plus a Quantile.
func (p *LoadPath) Point(rho float64) (SweepPoint, error) {
	cm, err := p.Compile(rho)
	if err != nil {
		return SweepPoint{}, err
	}
	rtt, err := p.Quantile(cm)
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Load: rho, Gamers: cm.Model.Gamers, RTT: rtt}, nil
}
