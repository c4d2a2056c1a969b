package mgf

import (
	"errors"
	"math"
	"testing"
)

// testMixes returns a spread of mixes exercising every Mul branch: atoms,
// same-pole merges, distinct real poles and a complex-conjugate pair.
func testMixes() []Mix {
	withAtom := NewErlang(0.3, 2, 5)
	withAtom.Atom = 0.7
	var conj Mix
	conj.Atom = 0.5
	conj.AddTerm(complex(2, 1.5), []complex128{complex(0.25, -0.1)})
	conj.AddTerm(complex(2, -1.5), []complex128{complex(0.25, 0.1)})
	return []Mix{
		NewExponential(1, 3),
		NewErlang(1, 4, 1.2),
		NewErlang(1, 3, 5), // same pole as withAtom's term: exact merge
		withAtom,
		conj,
	}
}

// TestMulWSMatchesMul pins that the workspace-reusing product mulWS is the same
// arithmetic as the allocating one: every pairing, with ONE workspace
// carried across all products (so stale scratch from a previous product
// must never leak into the next), is bit-identical to Mul.
func TestMulWSMatchesMul(t *testing.T) {
	mixes := testMixes()
	ws := new(Workspace)
	for i, a := range mixes {
		for j, b := range mixes {
			want := Mul(a, b)
			got := mulWS(a, b, ws)
			if got.Atom != want.Atom {
				t.Errorf("(%d,%d): atom %v != %v", i, j, got.Atom, want.Atom)
			}
			if len(got.Terms) != len(want.Terms) {
				t.Fatalf("(%d,%d): %d terms != %d", i, j, len(got.Terms), len(want.Terms))
			}
			for k := range got.Terms {
				if got.Terms[k].Pole != want.Terms[k].Pole {
					t.Errorf("(%d,%d) term %d: pole %v != %v", i, j, k,
						got.Terms[k].Pole, want.Terms[k].Pole)
				}
				for c := range got.Terms[k].Coef {
					if got.Terms[k].Coef[c] != want.Terms[k].Coef[c] {
						t.Errorf("(%d,%d) term %d coef %d: %v != %v", i, j, k, c,
							got.Terms[k].Coef[c], want.Terms[k].Coef[c])
					}
				}
			}
		}
	}
}

// lawOnly hides a Mix's concrete type from Sum.TailWS, forcing the generic
// point-by-point quadrature path.
type lawOnly struct{ m Mix }

func (l lawOnly) Tail(x float64) float64 { return l.m.Tail(x) }
func (l lawOnly) Mean() float64          { return l.m.Mean() }
func (l lawOnly) TotalMass() float64     { return l.m.TotalMass() }

// TestSumTailGridMatchesDirect pins the exp-recurrence grid evaluators of
// the per-abscissa path against the direct per-point quadrature over the
// same grid: the recurrence re-anchors every expResetStride steps, so the
// two must agree to ~1e-12. tailGrid is called directly — through Tail the
// ladder answers in this regime, and what it changes is covered by the
// equivalence gate in ladder_test.go, not by this recurrence contract.
func TestSumTailGridMatchesDirect(t *testing.T) {
	a := NewErlang(1, 9, 0.3)
	var ws Workspace
	for _, b := range []Mix{NewErlang(1, 8, 0.25), testMixes()[4]} {
		fast := Sum{A: a, B: b}
		slow := Sum{A: a, B: lawOnly{b}}
		for _, x := range []float64{0.5, 5, 50, 200, 2000} {
			got := fast.tailGrid(x, b, &ws, fast.sharpestDecay())
			want := slow.Tail(x)
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Errorf("B=%v tail(%v): grid %v vs direct %v (diff %g)",
					b, x, got, want, got-want)
			}
		}
	}
}

// TestSumTailWSAllocs pins the allocation contract of the compiled
// evaluator's hot loop: with a caller-held workspace whose buffers have been
// grown once, a tail evaluation allocates nothing.
func TestSumTailWSAllocs(t *testing.T) {
	s := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.25)}
	ws := new(Workspace)
	s.TailWS(50, ws) // grow the grids
	allocs := testing.AllocsPerRun(50, func() { s.TailWS(50, ws) })
	if allocs > 0 {
		t.Errorf("Sum.TailWS with warm workspace allocates %v per run, want 0", allocs)
	}
}

// TestQuantileWorkspaceBitIdentical is the workspace contract at the law
// level: inverting a ladder of laws with one workspace threaded through (in
// order and out of order, so the laws before each one lie both below and
// above it) returns exactly the bits of independent inversions on fresh
// pooled workspaces.
func TestQuantileWorkspaceBitIdentical(t *testing.T) {
	// A ladder of stochastically growing laws, like a load sweep's.
	var sums []Sum
	for _, rate := range []float64{0.40, 0.32, 0.25, 0.18, 0.12, 0.32, 0.45} {
		sums = append(sums, Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, rate)})
	}
	for _, p := range []float64{0.99, 0.99999} {
		var ws Workspace
		for i, s := range sums {
			warm, err := Quantile(s, p, &ws)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := s.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold {
				t.Errorf("sum %d p=%v: warm %v != cold %v", i, p, warm, cold)
			}
		}
		var mixWS Workspace
		for i, r := range []float64{3, 2, 1.2, 0.8, 2.5} {
			m := NewErlang(1, 4, r)
			warm, err := Quantile(m, p, &mixWS)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := m.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold {
				t.Errorf("mix %d p=%v: warm %v != cold %v", i, p, warm, cold)
			}
		}
	}
}

// TestQuantileWorkspaceStartsCold pins the one-shot form: a pooled
// workspace that a previous borrower left dirty (its ladder built for
// another law) answers exactly like a fresh workspace, and a law type
// without an inversion is an error, not a panic.
func TestQuantileWorkspaceStartsCold(t *testing.T) {
	other := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.12)}
	s := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.4)}
	want, err := Quantile(s, 0.99999, new(Workspace))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ws, pooled := borrowWS(nil)
		if !pooled {
			t.Fatal("nil workspace was not borrowed from the pool")
		}
		if _, err := Quantile(other, 0.99, ws); err != nil {
			t.Fatal(err)
		}
		releaseWS(ws) // a dirty workspace goes back to the pool
		got, err := Quantile(s, 0.99999, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("borrow %d: pooled answer %v != fresh-workspace answer %v", i, got, want)
		}
	}
	if _, err := Quantile(lawOnly{NewExponential(1, 2)}, 0.99, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("Quantile of an opaque law: err %v, want ErrInvalid", err)
	}
}

// BenchmarkSumTailBatch measures the probes of one bracket walk evaluated
// one TailWS call at a time over a warm workspace.
func BenchmarkSumTailBatch(b *testing.B) {
	s := Sum{A: NewErlang(1, 9, 0.3), B: NewErlang(1, 8, 0.25)}
	xs := []float64{12.5, 25, 50, 100, 200, 400}
	out := make([]float64, len(xs))
	ws := new(Workspace)
	for _, x := range xs {
		s.TailWS(x, ws) // warm the grids
	}
	b.Run("pointwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range xs {
				out[j] = s.TailWS(x, ws)
			}
		}
	})
}
