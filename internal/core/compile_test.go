package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestCompiledMatchesModel pins that every compiled evaluator returns
// exactly the bits of the corresponding one-shot Model method.
func TestCompiledMatchesModel(t *testing.T) {
	for _, k := range []int{9, 20} {
		m := figure3Model(k).WithDownlinkLoad(0.5)
		cm, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := m.RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		gotQ, err := cm.RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		if gotQ != wantQ {
			t.Errorf("K=%d: compiled quantile %v != model %v", k, gotQ, wantQ)
		}
		wantMean, err := m.MeanRTT()
		if err != nil {
			t.Fatal(err)
		}
		if gotMean := cm.MeanRTT(); gotMean != wantMean {
			t.Errorf("K=%d: compiled mean %v != model %v", k, gotMean, wantMean)
		}
		d := wantQ * 0.8
		wantTail, err := m.rttTail(d)
		if err != nil {
			t.Fatal(err)
		}
		gotTail, err := cm.rttTail(d)
		if err != nil {
			t.Fatal(err)
		}
		if gotTail != wantTail {
			t.Errorf("K=%d: compiled tail %v != model %v", k, gotTail, wantTail)
		}
		wantC, err := m.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := cm.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		if gotC != wantC {
			t.Errorf("K=%d: compiled decomposition %+v != model %+v", k, gotC, wantC)
		}
	}
}

// TestWarmStartBitIdentical is the walked-evaluation property test:
// evaluating every point through one LoadPath must return exactly the bits
// of independent per-point evaluations — across the paper's grid, seeded
// random grids, and a deliberately unsorted grid.
func TestWarmStartBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grids := [][]float64{PaperLoadGrid()}
	for g := 0; g < 3; g++ {
		grid := make([]float64, 12)
		for i := range grid {
			grid[i] = 0.03 + 0.87*rng.Float64()
		}
		sort.Float64s(grid)
		grids = append(grids, grid)
	}
	grids = append(grids, []float64{0.5, 0.1, 0.8, 0.3, 0.9, 0.05, 0.6})
	for _, k := range []int{9, 20} {
		m := figure3Model(k)
		for gi, grid := range grids {
			path := m.NewLoadPath()
			for _, rho := range grid {
				pt, err := path.Point(rho)
				if err != nil {
					t.Fatalf("K=%d grid %d rho=%v: warm: %v", k, gi, rho, err)
				}
				warm := pt.RTT
				cold, err := m.WithDownlinkLoad(rho).RTTQuantile()
				if err != nil {
					t.Fatalf("K=%d grid %d rho=%v: cold: %v", k, gi, rho, err)
				}
				if warm != cold {
					t.Errorf("K=%d grid %d rho=%v: warm %v != cold %v (diff %g)",
						k, gi, rho, warm, cold, warm-cold)
				}
			}
		}
	}
}

// TestSweepLoadsWarmMatchesParallel pins the same property end to end: the
// one-worker sweep (one LoadPath through every point) and the four-worker
// sweep (four chains) must produce identical series.
func TestSweepLoadsWarmMatchesParallel(t *testing.T) {
	m := figure3Model(9)
	loads := PaperLoadGrid()
	serial, err := m.SweepLoads(loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.SweepLoads(loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestCompiledEvaluatorAllocs pins that RTTQuantile on a compiled model
// allocates nothing at K = 9: the inversion's tail passes use stack
// scratch at that order.
func TestCompiledEvaluatorAllocs(t *testing.T) {
	cm, err := figure3Model(9).WithDownlinkLoad(0.5).Compile()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cm.RTTQuantile(); err != nil {
			t.Error(err)
		}
	})
	if allocs > 0 {
		t.Errorf("compiled RTTQuantile allocates %v per run at K = 9, want 0", allocs)
	}
}

// TestCompiledModelConcurrentUse pins that a compiled model is safe for
// concurrent use because it is immutable: at K = 9 and at K = 200, where
// each tail pass takes heap scratch, 8 goroutines calling RTTQuantile,
// Decompose and MeanRTT on one model get the bits of a serial evaluation
// of the same scenario. K = 200 runs at load 0.5, where the burst wait is
// the unit atom, and at 0.75, where it keeps its poles. The race job runs
// it.
func TestCompiledModelConcurrentUse(t *testing.T) {
	for _, c := range []struct {
		k   int
		rho float64
	}{{9, 0.5}, {200, 0.5}, {200, 0.75}} {
		k := c.k
		m := figure3Model(k).WithDownlinkLoad(c.rho)
		wantQ, err := m.RTTQuantile()
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := m.Decompose()
		if err != nil {
			t.Fatal(err)
		}
		wantMean, err := m.MeanRTT()
		if err != nil {
			t.Fatal(err)
		}
		cm, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					if q, err := cm.RTTQuantile(); err != nil || q != wantQ {
						t.Errorf("K=%d goroutine %d: RTTQuantile %v, %v; want %v", k, g, q, err, wantQ)
					}
					if c, err := cm.Decompose(); err != nil || c != wantC {
						t.Errorf("K=%d goroutine %d: Decompose %+v, %v; want %+v", k, g, c, err, wantC)
					}
					if mean := cm.MeanRTT(); mean != wantMean {
						t.Errorf("K=%d goroutine %d: MeanRTT %v; want %v", k, g, mean, wantMean)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCompileAllocsFlatInK pins that Compile builds each factor law in one
// piece: its allocation count does not grow with the Erlang order. W is
// one set of poles and weights, and P is built once from (K, beta). The
// load, 0.75, is one where W keeps its poles at every K: at 0.5, W at
// K = 200 is the unit atom (queueing's negligible-wait rule) and Compile
// allocates less.
func TestCompileAllocsFlatInK(t *testing.T) {
	counts := map[int]float64{}
	for _, k := range []int{9, 28, 200} {
		m := figure3Model(k).WithDownlinkLoad(0.75)
		if _, err := m.Compile(); err != nil {
			t.Fatal(err)
		}
		counts[k] = testing.AllocsPerRun(20, func() {
			if _, err := m.Compile(); err != nil {
				t.Error(err)
			}
		})
	}
	if counts[28] != counts[9] || counts[200] != counts[9] {
		t.Errorf("Compile allocations at K = 9, 28, 200: %v, %v, %v; want them equal",
			counts[9], counts[28], counts[200])
	}
}

// BenchmarkSweepPaperGridCold measures a cold paper-figure sweep: warm is
// the one-worker SweepLoads (one LoadPath through every point) and
// independent the one-shot Model.RTTQuantile at every point; both compile
// and invert every point from scratch.
func BenchmarkSweepPaperGridCold(b *testing.B) {
	m := figure3Model(9)
	loads := PaperLoadGrid()
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.SweepLoads(loads, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rho := range loads {
				if _, err := m.WithDownlinkLoad(rho).RTTQuantile(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDimensionCold measures a cold §4 dimensioning run at K=9: the
// ITP search probes about ten loads, each evaluated cold by the default
// evaluator.
func BenchmarkDimensionCold(b *testing.B) {
	m := figure3Model(9)
	for i := 0; i < b.N; i++ {
		if _, err := m.MaxLoad(0.060); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDimensionColdK20 is BenchmarkDimensionCold at K=20, where every
// tail evaluation carries a ladder of 19 orders.
func BenchmarkDimensionColdK20(b *testing.B) {
	m := figure3Model(20)
	for i := 0; i < b.N; i++ {
		if _, err := m.MaxLoad(0.060); err != nil {
			b.Fatal(err)
		}
	}
}

// rttTail returns P(RTT > d).
func (cm *CompiledModel) rttTail(d float64) (float64, error) {
	x := d - cm.Model.FixedPart()
	if x < 0 {
		return 1, nil
	}
	return cm.law.Tail(x), nil
}

// rttTail returns P(RTT > d).
func (m Model) rttTail(d float64) (float64, error) {
	cm, err := m.Compile()
	if err != nil {
		return 0, err
	}
	return cm.rttTail(d)
}
