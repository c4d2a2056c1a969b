package mgf

// Hooks for the external test package (walk_test.go, oracle_test.go), which
// drives the inversion and the tail with laws compiled by internal/core.

// InvertTail is invertTail.
var InvertTail = invertTail

// SeedOf is the seed Sum.Quantile starts its bracket walk from.
func SeedOf(s Sum, p float64) float64 { return s.seed(p) }

// FactorsOf returns the U, W and P factors of s.
func FactorsOf(s Sum) (u, w, p Mix) { return s.u, s.w, s.p }

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
