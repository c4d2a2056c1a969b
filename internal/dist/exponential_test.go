package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Exponential is Exp(Rate): mean 1/Rate, the Erlang order-1 special case.
// Only tests build it; production code uses Erlang{K: 1}, the same law
// (TestErlangOrderOneIsExponential).
type Exponential struct {
	Rate float64
}

// Sample draws from Exp(Rate).
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var returns 1/Rate^2.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// CDF returns 1 - e^{-Rate x} for x >= 0.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

func (e Exponential) String() string { return fmt.Sprintf("Exp(%g)", e.Rate) }
