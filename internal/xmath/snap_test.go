package xmath

import (
	"math"
	"testing"
)

// TestSnapSeedGrid pins the canonical-seed grid: the result keeps at most
// snapBits significant bits (snapping is idempotent), stays within half a
// grid spacing of the input, and respects sign symmetry.
func TestSnapSeedGrid(t *testing.T) {
	inputs := []float64{1, math.Pi, 1e-300, 7.372819e17, 0.6931471805599453, 1 + 1e-9}
	for _, x := range inputs {
		s := SnapSeed(x)
		if SnapSeed(s) != s {
			t.Errorf("SnapSeed(%v) = %v not idempotent", x, s)
		}
		if rel := math.Abs(s-x) / math.Abs(x); rel > math.Ldexp(1, -snapBits) {
			t.Errorf("SnapSeed(%v) = %v moved by %g relative, beyond one grid spacing", x, s, rel)
		}
		if SnapSeed(-x) != -s {
			t.Errorf("SnapSeed(-%v) = %v, want %v", x, SnapSeed(-x), -s)
		}
	}
	// Zeros, infinities and NaN pass through.
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)} {
		if s := SnapSeed(x); math.Float64bits(s) != math.Float64bits(x) {
			t.Errorf("SnapSeed(%v) = %v, want passthrough", x, s)
		}
	}
	if !math.IsNaN(SnapSeed(math.NaN())) {
		t.Error("SnapSeed(NaN) not NaN")
	}
}

// TestSnapSeedCanonicalizes is the property the root solvers rely on:
// two converged values that agree to ~1e-15 relative (different last-bit
// neighbours of the same root) snap to the same seed.
func TestSnapSeedCanonicalizes(t *testing.T) {
	for _, x := range []float64{0.3127718372, 1.0, 42.5, 1e-8, 3.7e12} {
		y := x * (1 + 4e-15)
		if SnapSeed(x) != SnapSeed(y) {
			t.Errorf("neighbours of %v snap apart: %v vs %v", x, SnapSeed(x), SnapSeed(y))
		}
	}
}

// TestSnapSeedCFlushesNoiseComponent pins the zero-flush rule: a component
// at rounding-noise scale relative to the other — the numerical shadow of an
// exactly real (or imaginary) root — snaps to exactly zero, while genuine
// small components survive.
func TestSnapSeedCFlushesNoiseComponent(t *testing.T) {
	// The failure mode the rule exists for: two eps-scale dust values that
	// differ by far more than the relative grid still share a seed.
	a := SnapSeedC(complex(-0.0889345, 1.0891387942508745e-17))
	b := SnapSeedC(complex(-0.0889345, 1.0891341357507266e-17))
	if imag(a) != 0 || imag(b) != 0 {
		t.Errorf("dust not flushed: %v, %v", a, b)
	}
	if a != b {
		t.Errorf("dust-bearing neighbours snap apart: %v vs %v", a, b)
	}
	if z := SnapSeedC(complex(1.22e-16, 0.75)); real(z) != 0 {
		t.Errorf("real dust against imaginary component not flushed: %v", z)
	}
	// Genuine components far above the flush threshold are kept.
	if z := SnapSeedC(complex(0.5, 1e-9)); imag(z) == 0 {
		t.Errorf("genuine small imaginary part flushed: %v", z)
	}
	if z := SnapSeedC(complex(0, 0)); z != 0 {
		t.Errorf("SnapSeedC(0) = %v", z)
	}
}
