package core

import (
	"math/rand"
	"sort"
	"testing"
)

// loadPathGrids returns the grids the LoadPath contract is pinned over: the
// paper's grid, seeded random monotone grids, and the paper grid reversed.
func loadPathGrids() [][]float64 {
	rng := rand.New(rand.NewSource(23))
	grids := [][]float64{PaperLoadGrid()}
	for g := 0; g < 3; g++ {
		grid := make([]float64, 10)
		for i := range grid {
			grid[i] = 0.03 + 0.87*rng.Float64()
		}
		sort.Float64s(grid)
		grids = append(grids, grid)
	}
	rev := PaperLoadGrid()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	grids = append(grids, rev)
	return grids
}

// TestLoadPathBitIdenticalToCold is the LoadPath contract end to end: a
// walk must return exactly the bits of independent cold evaluation at every
// point of every grid.
func TestLoadPathBitIdenticalToCold(t *testing.T) {
	for _, k := range []int{9, 20} {
		m := figure3Model(k)
		for gi, grid := range loadPathGrids() {
			path := m.NewLoadPath()
			for _, rho := range grid {
				pt, err := path.Point(rho)
				if err != nil {
					t.Fatalf("K=%d grid %d rho=%v: path: %v", k, gi, rho, err)
				}
				at := m.WithDownlinkLoad(rho)
				cold, err := at.RTTQuantile()
				if err != nil {
					t.Fatalf("K=%d grid %d rho=%v: cold: %v", k, gi, rho, err)
				}
				if pt.RTT != cold {
					t.Errorf("K=%d grid %d rho=%v: path %v != cold %v (diff %g)",
						k, gi, rho, pt.RTT, cold, pt.RTT-cold)
				}
				if pt.Gamers != at.Gamers {
					t.Errorf("K=%d grid %d rho=%v: path gamers %v != %v",
						k, gi, rho, pt.Gamers, at.Gamers)
				}
			}
		}
	}
}

// TestMaxLoadWithDefaultEvaluator pins that the default per-probe cold
// evaluator returns exactly the result of a search whose probes are walked
// through one LoadPath.
func TestMaxLoadWithDefaultEvaluator(t *testing.T) {
	m := figure3Model(9)
	const bound = 0.060
	viaCold, err := m.MaxLoad(bound)
	if err != nil {
		t.Fatal(err)
	}
	path := m.NewLoadPath()
	viaPath, err := m.MaxLoadWith(bound, func(rho float64) (float64, error) {
		pt, err := path.Point(rho)
		return pt.RTT, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaPath != viaCold {
		t.Errorf("LoadPath evaluator %+v != default %+v", viaPath, viaCold)
	}
}

// TestSweepGridWithChunkedChains pins the chunked grid walker against
// independent cold evaluation at several worker counts, including more
// workers than points.
func TestSweepGridWithChunkedChains(t *testing.T) {
	m := figure3Model(9)
	loads := PaperLoadGrid()
	want, err := coldSweep(m, loads)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 5, len(loads), len(loads) + 7} {
		got, err := m.SweepGridWith(loads, workers, func() func(rho float64) (SweepPoint, error) {
			return m.NewLoadPath().Point
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d point %d: %+v != cold %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestLoadPathWalksMatchCold is the handle's contract as a table: for each
// Erlang order, the paper grid walked forward, walked in reverse, and
// walked over held compiled models (every other point compiled elsewhere,
// half of those evaluated once before, so a second evaluation of one
// model is checked too) returns at every point the bits of a cold
// WithDownlinkLoad(rho).RTTQuantile().
func TestLoadPathWalksMatchCold(t *testing.T) {
	for _, k := range []int{2, 9, 20, 30} {
		m := figure3Model(k)
		grid := PaperLoadGrid()
		cold := make(map[float64]float64, len(grid))
		memo := make(map[float64]*CompiledModel)
		for i, rho := range grid {
			at := m.WithDownlinkLoad(rho)
			q, err := at.RTTQuantile()
			if err != nil {
				t.Fatalf("K=%d rho=%v: cold: %v", k, rho, err)
			}
			cold[rho] = q
			if i%2 == 1 {
				cm, err := at.Compile()
				if err != nil {
					t.Fatal(err)
				}
				if i%4 == 1 {
					if _, err := cm.RTTQuantile(); err != nil {
						t.Fatal(err)
					}
				}
				memo[rho] = cm
			}
		}
		rev := make([]float64, len(grid))
		for i, rho := range grid {
			rev[len(grid)-1-i] = rho
		}
		for _, walk := range []struct {
			name     string
			loads    []float64
			memoized bool
		}{
			{"forward", grid, false},
			{"reverse", rev, false},
			{"memoized", grid, true},
			{"memoized-reverse", rev, true},
		} {
			path := m.NewLoadPath()
			for _, rho := range walk.loads {
				var got float64
				var err error
				if cm, ok := memo[rho]; ok && walk.memoized {
					got, err = cm.RTTQuantile()
				} else {
					var pt SweepPoint
					pt, err = path.Point(rho)
					got = pt.RTT
				}
				if err != nil {
					t.Fatalf("K=%d %s rho=%v: %v", k, walk.name, rho, err)
				}
				if got != cold[rho] {
					t.Errorf("K=%d %s rho=%v: path %v != cold %v (diff %g)",
						k, walk.name, rho, got, cold[rho], got-cold[rho])
				}
			}
		}
	}
}

// TestLoadGridByIndex pins the index-built grid: loads[i] must equal
// from + i*step exactly (no accumulated drift), the first point must be
// from itself, and the endpoint must survive the epsilon.
func TestLoadGridByIndex(t *testing.T) {
	cases := []struct{ from, to, step float64 }{
		{0.05, 0.9, 0.05},
		{0.1, 0.8, 0.1},
		{0.3, 0.31, 0.001},
		{0.05, 0.95, 0.09},
		{0.5, 0.5, 0.1},
	}
	for _, c := range cases {
		grid := LoadGrid(c.from, c.to, c.step)
		if len(grid) == 0 {
			t.Fatalf("LoadGrid(%v, %v, %v): empty", c.from, c.to, c.step)
		}
		if grid[0] != c.from {
			t.Errorf("LoadGrid(%v, %v, %v): first point %v, want from", c.from, c.to, c.step, grid[0])
		}
		for i, r := range grid {
			if want := c.from + float64(i)*c.step; r != want {
				t.Errorf("LoadGrid(%v, %v, %v)[%d] = %v, want %v", c.from, c.to, c.step, i, r, want)
			}
			if r > c.to+1e-12 {
				t.Errorf("LoadGrid(%v, %v, %v)[%d] = %v beyond to", c.from, c.to, c.step, i, r)
			}
		}
		if last := grid[len(grid)-1]; last+c.step <= c.to+1e-12 {
			t.Errorf("LoadGrid(%v, %v, %v) stops early at %v", c.from, c.to, c.step, last)
		}
	}
	if g := LoadGrid(0.1, 0.5, 0); g != nil {
		t.Errorf("LoadGrid with step 0 = %v, want nil", g)
	}
	// The paper grid is the index-built 18-point axis.
	pg := PaperLoadGrid()
	if len(pg) != 18 {
		t.Fatalf("PaperLoadGrid: %d points, want 18", len(pg))
	}
	for i, r := range pg {
		if want := 0.05 + float64(i)*0.05; r != want {
			t.Errorf("PaperLoadGrid[%d] = %v, want %v", i, r, want)
		}
	}
}
