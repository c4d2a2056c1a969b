package core

import (
	"fmt"
	"math"

	"fpsping/internal/runner"
)

// SweepPoint is one point of an RTT-versus-load curve (Figures 3 and 4).
type SweepPoint struct {
	// Load is the downlink load rho_d.
	Load float64
	// Gamers is the N realizing that load via eq. (37).
	Gamers float64
	// RTT is the RTT quantile in seconds.
	RTT float64
}

// SweepLoads evaluates the RTT quantile across the given downlink loads,
// producing the series behind the paper's figures. Loads at or beyond a
// stability limit are skipped (the curves' vertical asymptote).
//
// The grid is split into contiguous chunks over workers (<= 0 means one per
// CPU; see SweepGridWith). Every point compiles its own model, so the
// points are identical at any worker count. One worker walks the whole grid
// inline.
func (m Model) SweepLoads(loads []float64, workers int) ([]SweepPoint, error) {
	return m.SweepGridWith(loads, workers, func() func(rho float64) (SweepPoint, error) {
		return m.NewLoadPath().Point
	})
}

// SweepGridWith evaluates the curve with caller-supplied point evaluators
// fanned out over a worker pool — the one owner of the serial sweep
// semantics every front end shares (SweepLoads plugs in LoadPath.Point;
// the daemon's /v1/sweep plugs in its memoized one). chain is called
// once per worker and returns that worker's point evaluator, so an
// evaluator may keep per-chain state without synchronization: the grid is
// split into contiguous chunks, one chain per chunk, and each chain walks
// its chunk in load order.
//
// The serial semantics are reproduced exactly by an ordered post-scan of
// the full result grid: the curve ends at the first failing evaluation (the
// vertical asymptote), an invalid load is only an error if it sits before
// that point, and — because a chained point is bit-identical to an
// independent one — the returned points are byte-identical at any worker
// count. A chain stops walking its chunk at its first failure; the indices
// it leaves unevaluated all sit after the grid's first failure, which is
// where the post-scan stops reading.
func (m Model) SweepGridWith(loads []float64, workers int,
	chain func() func(rho float64) (SweepPoint, error)) ([]SweepPoint, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("%w: empty load list", ErrBadModel)
	}
	if workers <= 0 {
		workers = runner.DefaultWorkers()
	}
	if workers > len(loads) {
		workers = len(loads)
	}
	type cell struct {
		pt  SweepPoint
		bad error // invalid load (serial: immediate error)
		err error // failed evaluation (serial: break)
	}
	cells := make([]cell, len(loads))
	// Contiguous chunks, sizes differing by at most one; chunk c covers
	// [c*base+min(c,rem), ...+size). Workers write disjoint index ranges.
	base, rem := len(loads)/workers, len(loads)%workers
	runner.TryMap(workers, runner.Options{Workers: workers}, func(c int) (struct{}, error) {
		start, size := c*base, base
		if c < rem {
			start, size = start+c, size+1
		} else {
			start += rem
		}
		point := chain()
		for i := start; i < start+size; i++ {
			rho := loads[i]
			if !(rho > 0) {
				cells[i] = cell{bad: fmt.Errorf("%w: load %g", ErrBadModel, rho)}
				continue
			}
			pt, err := point(rho)
			if err != nil {
				cells[i] = cell{err: err}
				break // the post-scan never reads past this index
			}
			cells[i] = cell{pt: pt}
		}
		return struct{}{}, nil
	})
	out := make([]SweepPoint, 0, len(loads))
	for i := range cells {
		if cells[i].bad != nil {
			return nil, cells[i].bad
		}
		if cells[i].err != nil {
			// Stop at the first unstable point: the asymptote.
			break
		}
		out = append(out, cells[i].pt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no stable points in sweep of %s: %w", m, ErrUnstable)
	}
	return out, nil
}

// maxSweepPoints caps the length of a load grid: far beyond the paper's
// 18-point figure axis, and small enough that no single request can run a
// process out of memory or time.
const maxSweepPoints = 1000

// LoadGrid returns the closed load range [from, to] in step increments
// (with an epsilon so the endpoint survives rounding), or nil when
// CheckLoadGrid refuses the range. Points are built by index —
// from + i*step, one rounding per point — rather than by accumulation, so a
// grid value does not depend on how many points precede it and drift does
// not grow with the grid's length.
func LoadGrid(from, to, step float64) []float64 {
	loads, _ := CheckLoadGrid(from, to, step)
	return loads
}

// CheckLoadGrid is LoadGrid with the reason for a refusal: from, to and
// step must be finite, from and step positive, to >= from, and the grid at
// most maxSweepPoints long; anything else is ErrBadModel. It is the one
// range check behind both the CLI's sweep command and the daemon's
// /v1/sweep, so the two can never disagree about a grid.
func CheckLoadGrid(from, to, step float64) ([]float64, error) {
	if math.IsInf(from, 0) || math.IsInf(to, 0) || math.IsInf(step, 0) ||
		!(step > 0) || !(from > 0) || !(to >= from) {
		return nil, fmt.Errorf("%w: bad sweep range [%g, %g] step %g", ErrBadModel, from, to, step)
	}
	var loads []float64
	for i := 0; ; i++ {
		r := from + float64(i)*step
		if r > to+1e-12 {
			break
		}
		if i == maxSweepPoints {
			return nil, fmt.Errorf("%w: sweep range [%g, %g] step %g exceeds %d points",
				ErrBadModel, from, to, step, maxSweepPoints)
		}
		loads = append(loads, r)
	}
	return loads, nil
}

// PaperLoadGrid returns the load axis used by Figures 3-4: 5% to 90% in 5%
// steps.
func PaperLoadGrid() []float64 {
	loads := make([]float64, 0, 18)
	for i := 0; i < 18; i++ {
		loads = append(loads, 0.05+float64(i)*0.05)
	}
	return loads
}
