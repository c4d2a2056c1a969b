package mgf

import (
	"math"
	"math/rand"
	"testing"
)

// ladderRefTail is a near-truth reference for the Sum tail: composite Simpson
// with a very fine per-abscissa grid, evaluated point by point through the
// closed-form Mix primitives. At 2^18 panels its own quadrature error is far
// below every tolerance used here.
func ladderRefTail(s Sum, x float64, n int) float64 {
	b := s.B.(Mix)
	h := x / float64(n)
	acc := s.A.PDF(0)*b.Tail(x) + s.A.PDF(x)*b.Tail(0)
	for i := 1; i < n; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		u := h * float64(i)
		acc += w * s.A.PDF(u) * b.Tail(x-u)
	}
	return s.A.Atom*b.Tail(x) + s.A.Tail(x) + acc*h/3
}

// gateLaws is the law set the equivalence and property tests run over: the
// paper-shaped crowded Erlang pair, a well-separated pair (all pairs closed
// form), a B with an atom and merged poles, and the complex-conjugate pair.
func gateLaws() []Sum {
	a := NewErlang(1, 9, 0.3)
	return []Sum{
		{A: a, B: NewErlang(1, 8, 0.25)},             // crowded: moment channel
		{A: a, B: NewErlang(1, 3, 5)},                // separated: closed form only
		{A: NewErlang(1, 4, 1.2), B: testMixes()[3]}, // atom + same-pole merge
		{A: a, B: testMixes()[4]},                    // complex-conjugate poles
	}
}

// TestLadderAccuracy pins two bounds against the fine pointwise reference
// across a raster spanning the ladder's engagement window, its below-floor
// and above-ceiling fallbacks, and the conditioning-guard regime:
//
//   - never-worse: the rewired Tail's error is at most the per-abscissa
//     scheme's error plus the 1e-12 gate slop, at every abscissa. Where the
//     ladder refuses, the fallback IS that scheme and the margin is exact.
//   - near-truth: where the ladder answers, it is within 2e-12 of the
//     reference outright — including laws (a B factor decaying much faster
//     than sharp(A)) where the per-abscissa grid is orders of magnitude
//     worse because its density tracks only A.
func TestLadderAccuracy(t *testing.T) {
	for si, s := range gateLaws() {
		b := s.B.(Mix)
		sharp := s.sharpestDecay()
		var ws Workspace
		ld := ws.ladderFor(s.A, b, sharp)
		for _, x := range []float64{0.5, 2, 5, 10, 20, 50, 100, 200} {
			got := s.TailWS(x, &ws)
			old := s.tailGrid(x, b, &ws, sharp)
			ref := ladderRefTail(s, x, 1<<18)
			slack := 1e-12 * (1 + math.Abs(ref))
			if math.Abs(got-ref) > math.Abs(old-ref)+slack {
				t.Errorf("law %d tail(%v): %v errs %g vs reference, per-abscissa errs only %g",
					si, x, got, got-ref, old-ref)
			}
			if ld == nil {
				continue
			}
			if v, ok := ld.tailAt(x); ok {
				if d := math.Abs(v - ref); d > 2e-12*(1+math.Abs(ref)) {
					t.Errorf("law %d tail(%v): engaged ladder %v vs reference %v (diff %g)",
						si, x, v, ref, v-ref)
				}
			}
		}
	}
}

// TestLadderEquivalenceGate is the ≤1e-12 gate against the per-abscissa
// scheme at serving-relevant abscissae: each law's quantiles across the
// levels the paper reports, plus deep multiples. The gate runs over the
// paper regime — crowded A/B rates, where the old grid resolves the
// integrand well and agreement is meaningful — on the handcrafted crowded
// pair and a seeded random family around it. (For a B factor decaying much
// faster than sharp(A) the old scheme's own error exceeds the gate and the
// ladder is the more accurate side; TestLadderAccuracy owns that bound.)
// Where the ladder refuses (clamps, guards) the fallback IS the old scheme
// and the diff is exactly zero.
func TestLadderEquivalenceGate(t *testing.T) {
	check := func(t *testing.T, si int, s Sum) {
		b := s.B.(Mix)
		var xs []float64
		for _, p := range []float64{0.99, 0.999, 0.9999, 0.99999} {
			q, err := s.Quantile(p)
			if err != nil {
				t.Fatalf("law %d quantile(%v): %v", si, p, err)
			}
			xs = append(xs, q)
		}
		xs = append(xs, 1.5*xs[len(xs)-1], 2.5*xs[len(xs)-1])
		var ws Workspace
		sharp := s.sharpestDecay()
		for _, x := range xs {
			got := s.TailWS(x, &ws)
			old := s.tailGrid(x, b, &ws, sharp)
			if d := math.Abs(got - old); d > 1e-12*(1+math.Abs(old)) {
				t.Errorf("law %d tail(%v): ladder %v vs grid %v (diff %g)", si, x, got, old, got-old)
			}
		}
	}
	check(t, 0, gateLaws()[0])
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		ra := 0.2 + 0.3*rng.Float64()
		a := NewErlang(1, 5+rng.Intn(6), ra)
		b := NewErlang(1, 4+rng.Intn(6), ra*(0.7+0.6*rng.Float64()))
		check(t, 100+i, Sum{A: a, B: b})
	}
}

// TestLadderVisitOrderInvariant is the warm==cold property on the ladder
// path: one workspace walking abscissae in ascending order, one walking the
// same abscissae reversed, and a fresh workspace per abscissa all produce
// identical bits — values are pure functions of (law, x), never of how far
// the shared prefix had grown when they were computed.
func TestLadderVisitOrderInvariant(t *testing.T) {
	for si, s := range gateLaws() {
		xs := []float64{30, 45, 60, 90, 130, 210, 340, 55, 30} // repeats on purpose
		fwd := make([]float64, len(xs))
		var wsF Workspace
		for i, x := range xs {
			fwd[i] = s.TailWS(x, &wsF)
		}
		var wsR Workspace
		for i := len(xs) - 1; i >= 0; i-- {
			if got := s.TailWS(xs[i], &wsR); got != fwd[i] {
				t.Errorf("law %d tail(%v): reversed-order %v != forward %v", si, xs[i], got, fwd[i])
			}
		}
		for i, x := range xs {
			var cold Workspace
			if got := s.TailWS(x, &cold); got != fwd[i] {
				t.Errorf("law %d tail(%v): cold %v != warm %v", si, x, got, fwd[i])
			}
		}
	}
}

// TestLadderInvalidationOnLawChange reuses ONE workspace across a law
// change and back (the load-sweep pattern: the sweep loop holds a workspace
// while the law varies with rho). Every value must match a fresh-workspace
// evaluation bit for bit, and the cached tag must actually switch.
func TestLadderInvalidationOnLawChange(t *testing.T) {
	laws := gateLaws()
	s1, s2 := laws[0], laws[1]
	xs := []float64{30, 60, 120, 300}
	var ws Workspace
	for round, s := range []Sum{s1, s2, s1} {
		fpBefore := ws.lad.fp
		for _, x := range xs {
			warm := s.TailWS(x, &ws)
			var fresh Workspace
			if cold := s.TailWS(x, &fresh); warm != cold {
				t.Errorf("round %d tail(%v): reused-ws %v != fresh-ws %v", round, x, warm, cold)
			}
		}
		if round > 0 && ws.lad.fp == fpBefore {
			t.Errorf("round %d: ladder tag did not change on law switch", round)
		}
		if want := lawFingerprint(s.A, s.B.(Mix)); ws.lad.fp != want {
			t.Errorf("round %d: ladder tagged %x, want %x", round, ws.lad.fp, want)
		}
	}
}

// TestPanelCountClamps pins the per-abscissa panel policy at its boundaries:
// the 512 floor, the 32768 ceiling, and odd-to-even rounding in between.
func TestPanelCountClamps(t *testing.T) {
	cases := []struct {
		sharp, x float64
		want     int
	}{
		{1, 0.1, 512},         // 64·1.1 = 70 → floor
		{0, 100, 512},         // degenerate sharpness → floor
		{10, 1e6, 32768},      // far past the ceiling
		{1, 8, 576},           // 64·9 = 576: even, just above the floor, untouched
		{1, 15, 1024},         // 64·16, even, in range: untouched
		{1, 14.6484375, 1002}, // 64·(1+x) = 1001.5 (exact dyadic) → 1001 odd → 1002
	}
	for _, c := range cases {
		if got := panelCount(c.sharp, c.x); got != c.want {
			t.Errorf("panelCount(%v, %v) = %d, want %d", c.sharp, c.x, got, c.want)
		}
	}
}

// TestLadderEngagementWindow white-boxes the ladder's panel clamps: just
// inside the window it answers, just outside (floor and ceiling) it refuses
// and TailWS falls back to bits identical to the per-abscissa scheme. The
// separated law is used because its pairs all go closed form — in-window
// answers cannot be vetoed by the crowded channels' conditioning guard
// (which, on the crowded pair, trips throughout the window: the guard is a
// property of (law, x), not of the clamps).
func TestLadderEngagementWindow(t *testing.T) {
	s := gateLaws()[1]
	b := s.B.(Mix)
	sharp := s.sharpestDecay()
	var ws Workspace
	ld := ws.ladderFor(s.A, b, sharp)
	if ld == nil {
		t.Fatal("ladder rejected the paper-shaped law")
	}
	if want := 1 / (64 * sharp); ld.h != want {
		t.Errorf("ladder h = %v, want %v", ld.h, want)
	}
	if _, ok := ld.tailAt(float64(ladderMinPanels-1) * ld.h); ok {
		t.Error("ladder answered below the panel floor")
	}
	if _, ok := ld.tailAt(float64(ladderMaxPanels+2) * ld.h); ok {
		t.Error("ladder answered above the panel ceiling")
	}
	if _, ok := ld.tailAt(float64(ladderMinPanels+2) * ld.h); !ok {
		t.Error("ladder refused inside its window")
	}
	for _, x := range []float64{0.5 * float64(ladderMinPanels) * ld.h, 1.5 * float64(ladderMaxPanels) * ld.h} {
		if got, want := s.TailWS(x, &ws), s.tailGrid(x, b, &ws, sharp); got != want {
			t.Errorf("fallback tail(%v): %v != per-abscissa %v", x, got, want)
		}
	}
}

// TestSumTailSlowAllocs is the pooled-workspace contract of the nested-Sum
// fallback (tailSlow): with a caller-held workspace warmed once, the walk —
// including every inner tail it threads the workspace into — allocates
// nothing.
func TestSumTailSlowAllocs(t *testing.T) {
	inner := Sum{A: NewErlang(1, 8, 0.25), B: NewErlang(1, 3, 5)}
	outer := Sum{A: NewErlang(1, 2, 5), B: inner}
	ws := new(Workspace)
	outer.TailWS(20, ws)
	allocs := testing.AllocsPerRun(20, func() { outer.TailWS(20, ws) })
	if allocs > 0 {
		t.Errorf("nested Sum.TailWS with warm workspace allocates %v per run, want 0", allocs)
	}
}

// BenchmarkTailLadder measures the tail sweep the bracket walk performs,
// cold (a fresh workspace per sweep: the ladder is rebuilt and regrown)
// against shared (one warm workspace: every abscissa extends or reuses the
// prefix). The gap is the amortized Simpson work.
func BenchmarkTailLadder(b *testing.B) {
	s := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.25)}
	xs := []float64{27, 34, 43, 54, 68, 86, 108, 136, 171, 215}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws := new(Workspace)
			for _, x := range xs {
				_ = s.TailWS(x, ws)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		ws := new(Workspace)
		for _, x := range xs {
			_ = s.TailWS(x, ws)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				_ = s.TailWS(x, ws)
			}
		}
	})
}

// BenchmarkQuantileBracketWalk measures one quantile inversion — the seeded
// dyadic bracket walk plus Brent refinement — with a caller-held workspace
// whose ladder is already built, the unit of work a load sweep's chain
// repeats per grid point.
func BenchmarkQuantileBracketWalk(b *testing.B) {
	s := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.25)}
	ws := new(Workspace)
	if _, err := Quantile(s, 0.99999, ws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(s, 0.99999, ws); err != nil {
			b.Fatal(err)
		}
	}
}
