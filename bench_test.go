// Package fpsping_test is the benchmark harness of the reproduction: one
// benchmark per paper table and figure (regenerating the artifact each
// iteration), the ablation benches called out in DESIGN.md §5, and
// throughput benches for the heavy substrates. Run with:
//
//	go test -bench=. -benchmem
package fpsping_test

import (
	"fmt"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/dist"
	"fpsping/internal/experiments"
	"fpsping/internal/fit"
	"fpsping/internal/netsim"
	"fpsping/internal/queueing"
)

// --- The full report: serial vs parallel ---------------------------------

// BenchmarkAllExperiments regenerates the complete report (every table and
// figure, the `fpsping all` workload) at increasing worker counts. The
// output is byte-identical across sub-benchmarks; only the wall clock moves.
// This is the PR's headline number: the jobs=4/jobs=8 runs should beat
// jobs=1 by the machine's effective parallelism on a multi-core runner.
func BenchmarkAllExperiments(b *testing.B) {
	for _, jobs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Report(jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- One benchmark per paper artifact -----------------------------------

// BenchmarkTable1CounterStrike regenerates Table 1: sampling Färber's
// Counter-Strike laws and re-fitting the extreme distribution.
func BenchmarkTable1CounterStrike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.DefaultSeed, 50_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2HalfLife regenerates Table 2 with family ranking.
func BenchmarkTable2HalfLife(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.DefaultSeed, 50_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3LANParty regenerates Table 3 from a (shortened) LAN-party
// simulation plus trace analysis.
func BenchmarkTable3LANParty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.DefaultSeed, 60, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1BurstTDF regenerates Figure 1 (burst TDF + Erlang fits).
func BenchmarkFigure1BurstTDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(experiments.DefaultSeed, 60, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ErlangOrder regenerates the three K-curves of Figure 3.
func BenchmarkFigure3ErlangOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4InterArrival regenerates the two T-curves of Figure 4.
func BenchmarkFigure4InterArrival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDimensioning regenerates the §4 dimensioning rule (three K's).
func BenchmarkDimensioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Dimensioning(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustnessPS regenerates the §4 robustness checks.
func BenchmarkRobustnessPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) -------------------------------------

func ablationModel(rho float64) core.Model {
	m := core.DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = 9
	return m.WithDownlinkLoad(rho)
}

// BenchmarkAblationFullInversion measures the default full Erlang-mix
// inversion of eq. (35).
func BenchmarkAblationFullInversion(b *testing.B) {
	m := ablationModel(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDominantPole measures the dominant-pole shortcut.
func BenchmarkAblationDominantPole(b *testing.B) {
	m := ablationModel(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantileDominantPole(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationChernoff measures the eq. (36) Chernoff-bound inversion.
func BenchmarkAblationChernoff(b *testing.B) {
	m := ablationModel(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantileChernoff(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSumOfQuantiles measures the §3.3 sum-of-quantiles rule.
func BenchmarkAblationSumOfQuantiles(b *testing.B) {
	m := ablationModel(0.5)
	for i := 0; i < b.N; i++ {
		if _, err := m.RTTQuantileSumOfQuantiles(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationErlangOrderFit compares the cost of the two §2.3.2 order
// selectors on one synthetic burst sample.
func BenchmarkAblationErlangOrderFit(b *testing.B) {
	law, err := dist.ErlangByMean(18, 1852)
	if err != nil {
		b.Fatal(err)
	}
	xs := dist.SampleN(law, dist.NewRNG(1), 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.ErlangOrderByTail(xs, 40, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate throughput ------------------------------------------------

// BenchmarkWFQIsolation measures the WFQ scheduler scenario of §1 (gaming
// plus elastic flood through the bottleneck).
func BenchmarkWFQIsolation(b *testing.B) {
	erl, err := dist.ErlangByMean(9, 30*125)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.Config{
		Gamers:     30,
		ClientSize: dist.NewDeterministic(80),
		ClientIAT:  dist.NewDeterministic(0.060),
		BurstTotal: erl,
		BurstIAT:   dist.NewDeterministic(0.060),
		UpRate:     128_000,
		DownRate:   1_024_000,
		AggRate:    5_000_000,
		Background: &netsim.BackgroundConfig{Rate: 6_000_000, PacketSize: 1500},
		NewAggScheduler: func() netsim.Scheduler {
			w, err := netsim.NewWFQ(3, 5, 0)
			if err != nil {
				b.Fatal(err)
			}
			return w
		},
		ShuffleBurst: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := netsim.NewScenario(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimEventsPerSecond measures raw simulator throughput on the
// §4 scenario (events processed per wall second).
func BenchmarkNetsimEventsPerSecond(b *testing.B) {
	erl, err := dist.ErlangByMean(9, 100*125)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.Config{
		Gamers:       100,
		ClientSize:   dist.NewDeterministic(80),
		ClientIAT:    dist.NewDeterministic(0.040),
		BurstTotal:   erl,
		BurstIAT:     dist.NewDeterministic(0.040),
		UpRate:       128_000,
		DownRate:     1_024_000,
		AggRate:      5_000_000,
		ShuffleBurst: true,
	}
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		s, err := netsim.NewScenario(cfg, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(5)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkDEK1PoleSolve measures the Appendix C root finder across orders.
func BenchmarkDEK1PoleSolve(b *testing.B) {
	for _, k := range []int{2, 9, 20, 28} {
		q, err := queueing.NewDEK1(k, 0.030, 0.060)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiServerStudy regenerates the §3.2 multi-server extension
// table (D/E_K/1 baseline plus four M/E_K/1 splits).
func BenchmarkMultiServerStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiServerStudy(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJitterStudy regenerates the [23] jitter-injection table on a
// shortened horizon.
func BenchmarkJitterStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.JitterStudy(experiments.DefaultSeed, 20, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMEK1PoleSolve measures the polynomial pole finder behind the
// multi-server downstream queue.
func BenchmarkMEK1PoleSolve(b *testing.B) {
	for _, k := range []int{2, 9, 20} {
		q, err := queueing.NewMEK1(10, k, float64(k)*10/0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := q.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
