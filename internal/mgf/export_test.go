package mgf

// Hooks for the external test package (walk_test.go), which drives the
// inversion with laws compiled by internal/core.

// InvertTail is invertTail.
var InvertTail = invertTail

// SeedOf is the seed Sum.quantile starts its bracket walk from.
func SeedOf(s Sum, p float64) float64 { return s.seed(p) }

// TailPath names the evaluator that serves a law's tails: "closed" for a
// Mix, "nested" for a Sum whose B is a Sum, "ladder" for a Sum the
// shared-grid ladder accepts and "simpson" for one it refuses, whose every
// abscissa takes the per-abscissa Simpson path.
func TailPath(l Law) string {
	s, ok := l.(Sum)
	if !ok {
		return "closed"
	}
	b, ok := s.B.(Mix)
	if !ok {
		return "nested"
	}
	if new(Workspace).ladderFor(s.A, b, s.sharpestDecay()) == nil {
		return "simpson"
	}
	return "ladder"
}
