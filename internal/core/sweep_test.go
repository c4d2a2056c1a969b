package core

import (
	"errors"
	"math"
	"testing"
)

// sweepWorkers are the worker counts every sweep contract is pinned at:
// inline, fewer chains than points, and more chains than points.
var sweepWorkers = []int{1, 2, 4, 8, 64}

// coldSweep is the reference semantics of a sweep, built from independent
// cold per-point evaluations: an invalid load before the first unstable
// point is an error, the curve ends at the first unstable point, and a
// curve with no stable point is ErrUnstable.
func coldSweep(m Model, loads []float64) ([]SweepPoint, error) {
	if len(loads) == 0 {
		return nil, ErrBadModel
	}
	var out []SweepPoint
	for _, rho := range loads {
		if !(rho > 0) {
			return nil, ErrBadModel
		}
		at := m.WithDownlinkLoad(rho)
		rtt, err := at.RTTQuantile()
		if err != nil {
			break
		}
		out = append(out, SweepPoint{Load: rho, Gamers: at.Gamers, RTT: rtt})
	}
	if len(out) == 0 {
		return nil, ErrUnstable
	}
	return out, nil
}

// checkSweep runs SweepLoads at every worker count and compares each
// result, error class and points, with coldSweep.
func checkSweep(t *testing.T, m Model, loads []float64) {
	t.Helper()
	want, wantErr := coldSweep(m, loads)
	for _, workers := range sweepWorkers {
		got, err := m.SweepLoads(loads, workers)
		for _, class := range []error{ErrBadModel, ErrUnstable} {
			if errors.Is(err, class) != errors.Is(wantErr, class) {
				t.Errorf("loads %v workers=%d: err %v, cold err %v", loads, workers, err, wantErr)
			}
		}
		if len(got) != len(want) {
			t.Errorf("loads %v workers=%d: %d points, cold %d", loads, workers, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("loads %v workers=%d point %d: %+v != cold %+v", loads, workers, i, got[i], want[i])
			}
		}
	}
}

// TestSweepLoadsMatchesCold is the layer's determinism contract: a sweep
// must reproduce independent cold per-point evaluation bit for bit at any
// worker count, including the early break at the stability asymptote
// (loads past 90% drive the model unstable, so the grid below deliberately
// crosses it).
func TestSweepLoadsMatchesCold(t *testing.T) {
	m := figure3Model(9)
	var loads []float64
	for r := 0.05; r < 1.30; r += 0.05 {
		loads = append(loads, r)
	}
	if want, _ := coldSweep(m, loads); len(want) >= len(loads) {
		t.Fatalf("grid never crossed the asymptote (%d points) - widen it", len(want))
	}
	checkSweep(t, m, loads)
}

// TestSweepLoadsErrorsAtAnyWorkerCount pins the error semantics at every
// worker count against the cold reference: empty grids and invalid loads
// before the asymptote are errors, an invalid load after the first unstable
// point is never reached, and a grid with no stable point is ErrUnstable.
func TestSweepLoadsErrorsAtAnyWorkerCount(t *testing.T) {
	m := figure3Model(9)
	for _, loads := range [][]float64{
		nil,
		{-0.1, 0.5},
		{0.5, math.NaN()},
		{0.5, 2.5, -1}, // invalid load hiding behind the asymptote
		{2.5, 3},       // nothing stable
		{0.3, 0.6, 0.9, 1.2, 0.4},
	} {
		checkSweep(t, m, loads)
	}
}

// TestCheckLoadGrid pins the one sweep range check: non-finite or
// non-positive bounds and steps, reversed ranges and grids over
// maxSweepPoints are ErrBadModel, and the 1000-point edge is accepted.
func TestCheckLoadGrid(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct{ from, to, step float64 }{
		{0.05, inf, 0.05},
		{-inf, 0.5, 0.05},
		{0.05, 0.5, inf},
		{nan, 0.5, 0.05},
		{0.05, nan, 0.05},
		{0.05, 0.5, nan},
		{0, 0.5, 0.05},
		{0.05, 0.5, 0},
		{0.05, 0.5, -0.05},
		{0.5, 0.05, 0.05},
		{0.05, 0.9, 1e-6},
		{0.5, 0.5 + 1e-12, 1e-300}, // a step below the rounding of from
		{0.001, 1.001, 0.001},      // 1001 points
	} {
		grid, err := CheckLoadGrid(c.from, c.to, c.step)
		if !errors.Is(err, ErrBadModel) || grid != nil {
			t.Errorf("CheckLoadGrid(%v, %v, %v) = %d points, %v; want ErrBadModel",
				c.from, c.to, c.step, len(grid), err)
		}
		if g := LoadGrid(c.from, c.to, c.step); g != nil {
			t.Errorf("LoadGrid(%v, %v, %v) = %d points, want nil", c.from, c.to, c.step, len(g))
		}
	}
	grid, err := CheckLoadGrid(0.001, 1, 0.001)
	if err != nil || len(grid) != maxSweepPoints {
		t.Errorf("1000-point grid: %d points, %v", len(grid), err)
	}
}
