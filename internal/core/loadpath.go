package core

// LoadPath evaluates one scenario at points along the load axis. It holds
// only the model: each point compiles its own model cold, and the quantile
// inversion starts from its own law's factor seed (see mgf.Sum.Quantile),
// so nothing is carried from point to point. A point evaluated through a
// path is byte-identical to WithDownlinkLoad(rho).RTTQuantile(). SweepLoads
// drives its grid chunks through one; dimensioning searches (MaxLoadWith)
// evaluate WithDownlinkLoad(rho).RTTQuantile() directly.
type LoadPath struct {
	m Model
}

// NewLoadPath returns the point evaluator of the model's scenario (Gamers
// is overridden per point via WithDownlinkLoad).
func (m Model) NewLoadPath() *LoadPath { return &LoadPath{m: m} }

// Point evaluates one sweep point at downlink load rho: the model compiled
// at that load, plus its RTT quantile.
func (p *LoadPath) Point(rho float64) (SweepPoint, error) {
	cm, err := p.m.WithDownlinkLoad(rho).Compile()
	if err != nil {
		return SweepPoint{}, err
	}
	rtt, err := cm.RTTQuantile()
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{Load: rho, Gamers: cm.Model.Gamers, RTT: rtt}, nil
}
