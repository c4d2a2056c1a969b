package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// Mixture is a finite mixture: with probability Weights[i] (normalized), a
// draw comes from Components[i]. The fitting layer uses it to build the
// body-plus-heavy-tail burst laws on which the paper's two Erlang-order
// methods disagree (§2.3.2).
type Mixture struct {
	Components []Distribution
	Weights    []float64 // normalized to sum 1 by NewMixture
}

// NewMixture validates and normalizes the weights: one weight per component,
// all nonnegative, positive total.
func NewMixture(components []Distribution, weights []float64) (Mixture, error) {
	if len(components) == 0 {
		return Mixture{}, fmt.Errorf("dist: mixture needs >= 1 component")
	}
	if len(components) != len(weights) {
		return Mixture{}, fmt.Errorf("dist: mixture has %d components but %d weights",
			len(components), len(weights))
	}
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return Mixture{}, fmt.Errorf("dist: mixture weight[%d] = %g must be >= 0", i, w)
		}
		if components[i] == nil {
			return Mixture{}, fmt.Errorf("dist: mixture component[%d] is nil", i)
		}
		total += w
	}
	if !(total > 0) {
		return Mixture{}, fmt.Errorf("dist: mixture weights sum to %g, need > 0", total)
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	comps := make([]Distribution, len(components))
	copy(comps, components)
	return Mixture{Components: comps, Weights: norm}, nil
}

// Sample picks a component by weight and draws from it.
func (m Mixture) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	var acc float64
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			return m.Components[i].Sample(r)
		}
	}
	// Rounding left u just above the accumulated sum: use the last component.
	return m.Components[len(m.Components)-1].Sample(r)
}

// Mean returns the weighted component means.
func (m Mixture) Mean() float64 {
	var s float64
	for i, c := range m.Components {
		s += m.Weights[i] * c.Mean()
	}
	return s
}

// Var returns the law-of-total-variance mixture variance:
// sum w_i (Var_i + Mean_i^2) - Mean^2.
func (m Mixture) Var() float64 {
	mean := m.Mean()
	var s float64
	for i, c := range m.Components {
		cm := c.Mean()
		s += m.Weights[i] * (c.Var() + cm*cm)
	}
	return s - mean*mean
}

// CDF returns the weighted component CDFs.
func (m Mixture) CDF(x float64) float64 {
	var s float64
	for i, c := range m.Components {
		s += m.Weights[i] * c.CDF(x)
	}
	return s
}

// String renders Mix(w1*comp1 + w2*comp2 + ...).
func (m Mixture) String() string {
	var b strings.Builder
	b.WriteString("Mix(")
	for i, c := range m.Components {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%.3g*%v", m.Weights[i], c)
	}
	b.WriteString(")")
	return b.String()
}
