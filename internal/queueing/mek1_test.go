package queueing

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func TestMEK1Validation(t *testing.T) {
	if _, err := NewMEK1(0, 2, 1); err == nil {
		t.Error("accepted lambda=0")
	}
	if _, err := NewMEK1(1, 0, 1); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := NewMEK1(1, 2, 1); !errors.Is(err, ErrUnstable) {
		t.Error("accepted rho=2")
	}
	q, err := NewMEK1(10, 9, 150) // rho = 0.6
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Load()-0.6) > 1e-12 {
		t.Errorf("load = %v", q.Load())
	}
}

func TestMEK1ReducesToMM1(t *testing.T) {
	// K=1 is M/M/1: P(W > x) = rho e^{-(mu-lambda)x}.
	lambda, mu := 3.0, 5.0
	q, err := NewMEK1(lambda, 1, mu)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sol.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	for _, x := range []float64{0, 0.3, 1, 3} {
		want := rho * math.Exp(-(mu-lambda)*x)
		if got := m.Tail(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("x=%v: %v want %v", x, got, want)
		}
	}
	// Mean wait matches PK.
	if math.Abs(m.Mean()-q.meanWait()) > 1e-9 {
		t.Errorf("mean %v vs PK %v", m.Mean(), q.meanWait())
	}
}

func TestMEK1PolesSolveDenominator(t *testing.T) {
	for _, k := range []int{2, 5, 9, 20} {
		for _, rho := range []float64{0.3, 0.6, 0.9} {
			beta := 150.0
			lambda := rho * beta / float64(k)
			q, err := NewMEK1(lambda, k, beta)
			if err != nil {
				t.Fatal(err)
			}
			poles, err := q.poles()
			if err != nil {
				t.Fatalf("K=%d rho=%v: %v", k, rho, err)
			}
			if len(poles) != k {
				t.Fatalf("K=%d: %d poles", k, len(poles))
			}
			for _, p := range poles {
				// Verify the defining identity in scaled coordinates,
				// where all quantities are O(1): with z = p/beta and
				// a = lambda/beta, (z+a)(1-z)^K = a.
				z := p / complex(beta, 0)
				a := complex(lambda/beta, 0)
				lhs := (z + a) * cmplx.Pow(1-z, complex(float64(k), 0))
				if cmplx.Abs(lhs-a) > 1e-9 {
					t.Errorf("K=%d rho=%v: pole %v residual %v", k, rho, p, cmplx.Abs(lhs-a))
				}
			}
		}
	}
}

func TestMEK1WaitMixAgainstLindley(t *testing.T) {
	cases := []struct {
		k   int
		rho float64
	}{{2, 0.5}, {9, 0.6}, {9, 0.85}, {20, 0.7}, {60, 0.7}}
	for _, c := range cases {
		beta := 300.0
		lambda := c.rho * beta / float64(c.k)
		q, err := NewMEK1(lambda, c.k, beta)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := q.Solve()
		if err != nil {
			t.Fatalf("K=%d rho=%v: %v", c.k, c.rho, err)
		}
		m, err := sol.WaitMix()
		if err != nil {
			t.Fatalf("K=%d rho=%v: %v", c.k, c.rho, err)
		}
		mean := q.meanWait()
		probes := []float64{mean / 2, mean, 2 * mean, 4 * mean}
		const n = 1_000_000
		sim, err := simulateMEK1(q, n, uint64(13*c.k), probes)
		if err != nil {
			t.Fatal(err)
		}
		autocorr := 1 + 2/(1-c.rho)
		for i, x := range probes {
			want := m.Tail(x)
			got := sim.tailAt(i)
			tol := autocorr * mcTol(want, n, 6)
			if math.Abs(got-want) > tol {
				t.Errorf("K=%d rho=%v P(W>%v): analytic %v vs sim %v (tol %v)",
					c.k, c.rho, x, want, got, tol)
			}
		}
		if simMean := sim.Summary.Mean(); math.Abs(simMean-mean) > 0.05*mean {
			t.Errorf("K=%d rho=%v mean: %v vs PK %v", c.k, c.rho, simMean, mean)
		}
	}
}

func TestMEK1VersusDEK1TailOrdering(t *testing.T) {
	// Same service law and load: Poisson arrivals (M/E_K/1) are burstier
	// than the deterministic clock (D/E_K/1), so the M-side waiting tail
	// must dominate.
	k, rho, T := 9, 0.6, 0.060
	dq, err := NewDEK1(k, rho*T, T)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := NewMEK1(1/T, k, float64(k)/(rho*T))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := dq.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	msol, err := mq.Solve()
	if err != nil {
		t.Fatal(err)
	}
	mm, err := msol.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dq.Load()-mq.Load()) > 1e-12 {
		t.Fatalf("loads differ: %v vs %v", dq.Load(), mq.Load())
	}
	for _, x := range []float64{0.01, 0.03, 0.06, 0.12} {
		if mm.Tail(x) < dm.Tail(x) {
			t.Errorf("x=%v: M/E_K/1 tail %v below D/E_K/1 %v", x, mm.Tail(x), dm.Tail(x))
		}
	}
}

// BenchmarkMEK1WaitMix times the M/E_K/1 root solve and wait law at K = 9,
// rho = 0.6; BenchmarkMEK1WaitMixK100 at K = 100.
func BenchmarkMEK1WaitMix(b *testing.B) { benchMEK1WaitMix(b, 10, 9, 150) }

func BenchmarkMEK1WaitMixK100(b *testing.B) { benchMEK1WaitMix(b, 10, 100, 100/0.06) }

func benchMEK1WaitMix(b *testing.B, lambda float64, k int, beta float64) {
	q, err := NewMEK1(lambda, k, beta)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := q.Solve()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sol.WaitMix(); err != nil {
			b.Fatal(err)
		}
	}
}

// meanWait returns the Pollaczek-Khinchine mean waiting time
// lambda*E[S^2]/(2(1-rho)) with E[S^2] = K(K+1)/beta^2.
func (q MEK1) meanWait() float64 {
	k := float64(q.K)
	es2 := k * (k + 1) / (q.Beta * q.Beta)
	return q.Lambda * es2 / (2 * (1 - q.Load()))
}

// poles returns the K poles of the waiting-time MGF, beta times the roots
// z of the scaled denominator: the solved half and the conjugates of its
// complex members. All have positive real part for a stable queue.
func (q MEK1) poles() ([]complex128, error) {
	sol, err := q.Solve()
	if err != nil {
		return nil, err
	}
	var out []complex128
	for i, u := range sol.us {
		p := complex(q.Beta, 0) * (1 - u)
		if real(p) <= 0 {
			return nil, fmt.Errorf("M/E%d/1 pole %d = %v not in right half plane (rho=%g)", q.K, i, p, q.Load())
		}
		out = append(out, p)
		if imag(p) != 0 {
			out = append(out, cmplx.Conj(p))
		}
	}
	return out, nil
}
