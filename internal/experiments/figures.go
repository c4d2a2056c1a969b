package experiments

import (
	"fmt"
	"math"
	"strings"

	"fpsping/internal/core"
	"fpsping/internal/dist"
	"fpsping/internal/fit"
	"fpsping/internal/runner"
	"fpsping/internal/stats"
)

// Series is one labeled curve of a figure.
type Series struct {
	// Label names the curve as in the paper's legend.
	Label string
	// X and Y are the coordinates.
	X, Y []float64
}

// Figure1Result reproduces Figure 1: the measured burst-size TDF against
// mean-fitted Erlang tails of order 15, 20 and 25, plus the two order
// selection methods of §2.3.2.
type Figure1Result struct {
	// Empirical is the measured tail distribution function.
	Empirical Series
	// Erlangs are the candidate tails with their paper legends.
	Erlangs []Series
	// MeanBurst is the measured mean burst size (paper: 1852 B).
	MeanBurst float64
	// KByCoV is the Erlang order from the CoV method (paper derives 28).
	KByCoV int
	// KByTail is the order from the tail fit (paper reads 15-20 off the
	// figure).
	KByTail int
	// PaperRates are the legend rates for K=15/20/25: 0.008/0.011/0.013.
	PaperRates []float64
	// FittedRates are ours for the same orders.
	FittedRates []float64
}

// Render summarizes the figure (series lengths plus the calibration story).
func (f Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mean burst size: %.0f B (paper 1852 B)\n", f.MeanBurst)
	for i, s := range f.Erlangs {
		fmt.Fprintf(&b, "curve %-12s rate %.4f /B (paper legend %.3f)\n",
			s.Label, f.FittedRates[i], f.PaperRates[i])
	}
	fmt.Fprintf(&b, "Erlang order by CoV method:  K = %d (paper: 28)\n", f.KByCoV)
	fmt.Fprintf(&b, "Erlang order by tail fit:    K = %d (paper: 15-20)\n", f.KByTail)
	fmt.Fprintf(&b, "TDF series: %d points on [%g, %g] B\n",
		len(f.Empirical.X), f.Empirical.X[0], f.Empirical.X[len(f.Empirical.X)-1])
	return section("Figure 1 - burst-size TDF vs Erlang tails", b.String())
}

// Figure1 derives the figure from the Table 3 simulation's burst totals (the
// simulation replicas and the order fits run on up to jobs workers).
func Figure1(seed uint64, duration float64, jobs int) (Figure1Result, error) {
	var out Figure1Result
	t3, err := Table3(seed, duration, jobs)
	if err != nil {
		return out, err
	}
	totals := t3.BurstTotals
	sum := stats.Describe(totals)
	out.MeanBurst = sum.Mean()

	ecdf, err := stats.NewECDF(totals)
	if err != nil {
		return out, err
	}
	xs, tdf := ecdf.TDFSeries(0, 4000, 81) // the paper's 0..4000 B axis
	out.Empirical = Series{Label: "Experimental", X: xs, Y: tdf}

	out.PaperRates = []float64{0.008, 0.011, 0.013}
	for _, k := range []int{15, 20, 25} {
		e, err := dist.ErlangByMean(k, sum.Mean())
		if err != nil {
			return out, err
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = e.Tail(x)
		}
		out.Erlangs = append(out.Erlangs, Series{
			Label: fmt.Sprintf("E(%d,%.3f)", k, e.Rate),
			X:     xs, Y: ys,
		})
		out.FittedRates = append(out.FittedRates, e.Rate)
	}

	kCov, err := fit.ErlangOrderByCoV(sum.CoV())
	if err != nil {
		return out, err
	}
	out.KByCoV = kCov
	best, err := fit.ErlangOrderByTail(totals, 60, 5e-4)
	if err != nil {
		return out, err
	}
	out.KByTail = best.K
	return out, nil
}

// FigureRTTResult is a Figure 3 or Figure 4 style RTT-vs-load chart.
type FigureRTTResult struct {
	// Title echoes the paper caption.
	Title string
	// Curves are the RTT-vs-load series (RTT in ms as in the paper axes).
	Curves []Series
	// Notes carries shape observations (ratios, orderings).
	Notes []string
}

// Render formats the curves as aligned columns.
func (f FigureRTTResult) Render() string {
	var b strings.Builder
	b.WriteString("load%  ")
	for _, c := range f.Curves {
		fmt.Fprintf(&b, "%14s", c.Label)
	}
	b.WriteString("\n")
	for i := range f.Curves[0].X {
		fmt.Fprintf(&b, "%5.0f  ", 100*f.Curves[0].X[i])
		for _, c := range f.Curves {
			if i < len(c.Y) {
				fmt.Fprintf(&b, "%12.1fms", c.Y[i])
			} else {
				fmt.Fprintf(&b, "%14s", "-")
			}
		}
		b.WriteString("\n")
	}
	for _, n := range f.Notes {
		b.WriteString(n)
		b.WriteString("\n")
	}
	return section(f.Title, b.String())
}

// Figure3 computes the 99.999% RTT quantile against downlink load for
// K = 2, 9, 20 with PS = 125 B and T = 60 ms (DSL defaults of §4). The three
// K-curves run concurrently and each curve's load grid is itself swept in
// parallel.
func Figure3(jobs int) (FigureRTTResult, error) {
	out := FigureRTTResult{Title: "Figure 3 - impact of Erlang order K (PS=125B, IAT=60ms)"}
	loads := core.PaperLoadGrid()
	curves, err := runner.Items([]int{2, 9, 20}, runner.Options{Workers: jobs},
		func(_, k int) (Series, error) {
			m := core.DSLDefaults()
			m.ServerPacketBytes = 125
			m.BurstInterval = 0.060
			m.ErlangOrder = k
			pts, err := m.SweepLoads(loads, jobs)
			if err != nil {
				return Series{}, err
			}
			s := Series{Label: fmt.Sprintf("K = %d", k)}
			for _, p := range pts {
				s.X = append(s.X, p.Load)
				s.Y = append(s.Y, 1000*p.RTT)
			}
			return s, nil
		})
	if err != nil {
		return out, err
	}
	out.Curves = curves
	out.Notes = append(out.Notes,
		"paper reading: low K is unacceptable even at moderate load; curves rise to the rho->1 asymptote")
	return out, nil
}

// Figure4 computes the quantile for T = 40 vs 60 ms with PS = 125 B, K = 9,
// and reports the queueing-part ratio the paper calls "about 3/2". The two
// T-curves run concurrently over parallel load sweeps.
func Figure4(jobs int) (FigureRTTResult, error) {
	out := FigureRTTResult{Title: "Figure 4 - impact of the inter-arrival time (PS=125B, K=9)"}
	loads := core.PaperLoadGrid()
	tValues := []float64{40, 60}
	type curve struct {
		s Series
		m core.Model
	}
	curves, err := runner.Items(tValues, runner.Options{Workers: jobs},
		func(_ int, tms float64) (curve, error) {
			m := core.DSLDefaults()
			m.ServerPacketBytes = 125
			m.BurstInterval = tms / 1000
			m.ErlangOrder = 9
			pts, err := m.SweepLoads(loads, jobs)
			if err != nil {
				return curve{}, err
			}
			s := Series{Label: fmt.Sprintf("IAT = %.0fms", tms)}
			for _, p := range pts {
				s.X = append(s.X, p.Load)
				s.Y = append(s.Y, 1000*p.RTT)
			}
			return curve{s: s, m: m}, nil
		})
	if err != nil {
		return out, err
	}
	for _, c := range curves {
		out.Curves = append(out.Curves, c.s)
	}
	// Ratio of queueing parts at a mid load.
	m40 := curves[0].m.WithDownlinkLoad(0.4)
	m60 := curves[1].m.WithDownlinkLoad(0.4)
	q40, err := m40.RTTQuantile()
	if err != nil {
		return out, err
	}
	q60, err := m60.RTTQuantile()
	if err != nil {
		return out, err
	}
	ratio := (q60 - m60.FixedPart()) / (q40 - m40.FixedPart())
	out.Notes = append(out.Notes, fmt.Sprintf(
		"queueing-part ratio T=60/T=40 at 40%% load: %.3f (paper: about 3/2)", ratio))
	if math.Abs(ratio-1.5) > 0.15 {
		out.Notes = append(out.Notes, "WARNING: ratio off the paper's 3/2 claim")
	}
	return out, nil
}
