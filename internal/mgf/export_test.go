package mgf

// Hooks for the external test package (walk_test.go, oracle_test.go), which
// drives the inversion and the tail with laws compiled by internal/core.

// InvertTail is invertTail.
var InvertTail = invertTail

// MaxTailPasses is maxTailPasses.
const MaxTailPasses = maxTailPasses

// SumTailDensity is s's tail+density pass.
func SumTailDensity(s Sum) func(float64) (float64, float64) { return s.tailDensity }

// MixTailDensity is m's tail+density pass.
func MixTailDensity(m Mix) func(float64) (float64, float64) { return m.tailDensity }

// SeedOf is the factor seed of s's inversion at level p.
func SeedOf(s Sum, p float64) float64 { return s.seed(p) }

// ValidateProbes returns the abscissae Validate probes m's tail at and the
// tails its running-product grid computes there.
func ValidateProbes(m Mix) (xs, tails []float64) {
	span, grid := m.probeTails(m.Mean())
	for i, v := range grid {
		xs = append(xs, span*float64(i)/validateProbes)
		tails = append(tails, v)
	}
	return xs, tails
}
