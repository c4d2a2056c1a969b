package core

import "fpsping/internal/mgf"

// This file is the staged evaluation pipeline: everything expensive about a
// scenario — queue construction, M/E_K/1 and D/E_K/1 root solving, the
// factoring of the three delay laws — happens once, in Compile, and the
// result is a plain value that every evaluation reads. The pipeline has
// three stages:
//
//	Model           parameters only; free to copy and mutate
//	CompiledModel   combined law of the factors, built by Compile
//	evaluations     Quantile/Tail/Mean over the compiled law
//
// A CompiledModel lives for one evaluation of its scenario: front ends
// cache answers, never compiled models.

// CompiledLaw is a compiled total-delay law: the mgf.Sum of eq. (35),
// whose Quantile, Tail and Mean it promotes. Only perfbench's per-layer
// replay reads it, through CompiledModel.Law (see perfbenchOnly in
// reachable_test.go).
type CompiledLaw struct{ mgf.Sum }

// Law returns the underlying delay law.
func (c CompiledLaw) Law() mgf.Sum { return c.Sum }

// CompiledModel is a scenario with its analytic pipeline fully staged: the
// combined law of eq. (35), which keeps its three delay factors, ready for
// quantile/tail/mean evaluation. Build one with Model.Compile, or with
// MultiServer.Compile for several servers on one pipe. It is immutable, so
// it is safe for concurrent use.
type CompiledModel struct {
	// Model echoes the compiled scenario parameters (read-only by convention:
	// mutating them does not recompile). For several servers it is the
	// per-server scenario.
	Model Model

	law CompiledLaw
}

// Compile runs the expensive stages of the pipeline once: validates the
// scenario and builds the total queueing-delay law, an mgf.Sum over the
// upstream M/D/1 and downstream D/E_K/1 factors (delayLaw). Everything after
// this is cheap arithmetic over the result.
func (m Model) Compile() (*CompiledModel, error) {
	law, err := m.delayLaw()
	if err != nil {
		return nil, err
	}
	return &CompiledModel{Model: m, law: CompiledLaw{law}}, nil
}

// Law returns the compiled total-delay law.
func (cm *CompiledModel) Law() CompiledLaw { return cm.law }

// RTTQuantile returns the RTT quantile (seconds): the queueing-delay
// quantile plus the deterministic part, exactly as Model.RTTQuantile.
func (cm *CompiledModel) RTTQuantile() (float64, error) {
	q, err := cm.law.Quantile(cm.Model.quantile())
	if err != nil {
		return 0, err
	}
	return q + cm.Model.FixedPart(), nil
}

// MeanRTT returns the mean round trip time.
func (cm *CompiledModel) MeanRTT() float64 {
	return cm.law.Mean() + cm.Model.FixedPart()
}

// Decompose evaluates each delay component's quantile in isolation plus the
// true total, reusing the compiled factors instead of rebuilding the queues.
// A factor whose inversion fails is an error (mgf.ErrInvalid, served as a
// 422), never a zero component.
func (cm *CompiledModel) Decompose() (Components, error) {
	return cm.components(cm.law.Factors())
}

// components is Decompose over the factors du, w and pos of the law.
func (cm *CompiledModel) components(du, w, pos mgf.Mix) (Components, error) {
	m := cm.Model
	c := Components{
		Serialization: m.SerializationDelay(),
		Fixed:         m.FixedDelay,
	}
	p := m.quantile()
	var err error
	if c.Upstream, err = du.Quantile(p); err != nil {
		return c, err
	}
	if c.BurstWait, err = w.Quantile(p); err != nil {
		return c, err
	}
	if c.Position, err = pos.Quantile(p); err != nil {
		return c, err
	}
	if c.Total, err = cm.RTTQuantile(); err != nil {
		return c, err
	}
	return c, nil
}
