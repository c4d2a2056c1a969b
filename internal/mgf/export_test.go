package mgf

// Hooks for the external test package (walk_test.go, oracle_test.go), which
// drives the inversion and the tail with laws compiled by internal/core, and
// scans the tails of the wait laws internal/queueing serves
// (validate_test.go, poles_test.go).

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

// TailScan is tailScan.
var TailScan = tailScan
