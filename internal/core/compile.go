package core

import (
	"sync"

	"fpsping/internal/mgf"
)

// This file is the staged evaluation pipeline: everything expensive about a
// scenario — queue construction, M/E_K/1 and D/E_K/1 root solving, the
// factoring of the three delay laws — happens once, in Compile, and the
// result is a value cheap to evaluate many times. The pipeline has three
// stages with distinct lifetimes:
//
//	Model           parameters only; free to copy and mutate
//	CompiledModel   combined law of the factors, built by Compile
//	evaluations     Quantile/Tail/Mean over the compiled law
//
// Front ends cache CompiledModels (the daemon keeps them in its point memo).

// CompiledLaw pairs a delay law with a per-level cache of solved quantiles.
// It is safe for concurrent use: the underlying law is immutable and the
// cache is mutex-guarded, so a CompiledLaw can live in a shared memo entry.
type CompiledLaw struct {
	law mgf.Sum

	mu     sync.Mutex
	solved map[float64]float64 // quantile level -> queueing-delay quantile
}

// newCompiledLaw wraps a delay law for repeated evaluation.
func newCompiledLaw(l mgf.Sum) *CompiledLaw {
	return &CompiledLaw{law: l, solved: make(map[float64]float64)}
}

// Law returns the underlying delay law.
func (c *CompiledLaw) Law() mgf.Sum { return c.law }

// Mean returns E[D].
func (c *CompiledLaw) Mean() float64 { return c.law.Mean() }

// Quantile returns the queueing-delay quantile at level p. Solved levels are
// cached, so a level is inverted at most once per law; the cache changes
// only the cost of an answer, never its value.
func (c *CompiledLaw) Quantile(p float64) (float64, error) {
	c.mu.Lock()
	q, ok := c.solved[p]
	c.mu.Unlock()
	if ok {
		return q, nil
	}
	q, err := c.law.Quantile(p)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.solved[p] = q
	c.mu.Unlock()
	return q, nil
}

// CompiledModel is a scenario with its analytic pipeline fully staged: the
// combined law of eq. (35), which keeps its three delay factors, ready for
// repeated quantile/tail/mean evaluation. Build one with Model.Compile. A
// CompiledModel is safe for concurrent use.
type CompiledModel struct {
	// Model echoes the compiled scenario parameters (read-only by convention:
	// mutating them does not recompile).
	Model Model

	law *CompiledLaw
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
	return &CompiledModel{Model: m, law: newCompiledLaw(law)}, nil
}

// Law returns the compiled total-delay law.
func (cm *CompiledModel) Law() *CompiledLaw { return cm.law }

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
func (cm *CompiledModel) MeanRTT() (float64, error) {
	return cm.law.Mean() + cm.Model.FixedPart(), nil
}

// Decompose evaluates each delay component's quantile in isolation plus the
// true total, reusing the compiled factors instead of rebuilding the queues.
// A factor whose inversion fails is an error (mgf.ErrInvalid, served as a
// 422), never a zero component.
func (cm *CompiledModel) Decompose() (Components, error) {
	return cm.components(cm.law.law.Factors())
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
