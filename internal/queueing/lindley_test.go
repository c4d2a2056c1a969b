package queueing

import (
	"fmt"
	"math"
	"slices"

	"fpsping/internal/dist"
	"fpsping/internal/stats"
)

// The Lindley-recursion simulators the analytic laws are validated against.

// simResult summarizes a Lindley-recursion simulation: waiting-time moments
// and the empirical tail probability at each probe point.
type simResult struct {
	Summary stats.Summary
	probes  []float64
	counts  []int
	n       int
}

// tailAt returns the empirical P(W > probe) for the i-th configured probe.
func (r *simResult) tailAt(i int) float64 {
	return float64(r.counts[i]) / float64(r.n)
}

func newSimResult(probes []float64) *simResult {
	return &simResult{probes: probes, counts: make([]int, len(probes))}
}

func (r *simResult) add(w float64) {
	r.Summary.Add(w)
	r.n++
	for i, p := range r.probes {
		if w > p {
			r.counts[i]++
		}
	}
}

// simulateMD1 runs n customers through an M/D/1 queue by the Lindley
// recursion W_{k+1} = max(0, W_k + S - A_k) and records waiting times at
// arrivals (PASTA makes these match time averages). probes are tail points
// to count exceedances at.
func simulateMD1(q MD1, n int, seed uint64, probes []float64) (*simResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	r := dist.NewRNG(seed)
	res := newSimResult(probes)
	w := 0.0
	warmup := n / 10
	for i := 0; i < n+warmup; i++ {
		if i >= warmup {
			res.add(w)
		}
		a := r.ExpFloat64() / q.Lambda
		w += q.S - a
		if w < 0 {
			w = 0
		}
	}
	return res, nil
}

// simulateDEK1 runs n bursts through a D/E_K/1 queue and records both the
// burst waiting times and, for one uniformly placed tagged packet per burst,
// the total packet delay (burst wait + position delay within the burst).
// It returns (burst waits, packet delays).
func simulateDEK1(q DEK1, n int, seed uint64, burstProbes, packetProbes []float64) (*simResult, *simResult, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	erl, err := dist.NewErlang(q.K, q.Beta())
	if err != nil {
		return nil, nil, err
	}
	r := dist.NewRNG(seed)
	bursts := newSimResult(burstProbes)
	packets := newSimResult(packetProbes)
	w := 0.0
	warmup := n / 10
	for i := 0; i < n+warmup; i++ {
		b := erl.Sample(r)
		if i >= warmup {
			bursts.add(w)
			u := r.Float64()
			packets.add(w + u*b)
		}
		w += b - q.T
		if w < 0 {
			w = 0
		}
	}
	return bursts, packets, nil
}

// simulateNDD1 estimates the stationary workload survival function of an
// N*D/D/1 queue. Each replication draws fresh uniform phases for the N
// periodic sources, plays `cycles` periods through the Lindley recursion
// (after a warmup), and samples the virtual waiting time at Poisson-like
// random probe instants; replications make the phase ensemble stationary.
// The returned waits are the virtual waiting times in seconds.
func simulateNDD1(q ndd1, reps, cycles int, seed uint64, probes []float64) (*simResult, error) {
	if reps < 1 || cycles < 2 {
		return nil, fmt.Errorf("%w: reps=%d cycles=%d", ErrBadParam, reps, cycles)
	}
	r := dist.NewRNG(seed)
	res := newSimResult(probes)
	tau := q.serviceTime()
	phases := make([]float64, q.N)
	arrivals := make([]float64, 0, q.N*cycles)
	for rep := 0; rep < reps; rep++ {
		for i := range phases {
			phases[i] = r.Float64() * q.D
		}
		arrivals = arrivals[:0]
		for c := 0; c < cycles; c++ {
			for _, ph := range phases {
				arrivals = append(arrivals, float64(c)*q.D+ph)
			}
		}
		slices.Sort(arrivals)
		// Lindley over sorted arrivals; v(t) tracked between arrivals to
		// sample the virtual wait at one uniform instant per period.
		w := 0.0
		prev := 0.0
		warmupTime := q.D * float64(cycles) / 5
		nextSample := warmupTime + r.Float64()*q.D
		for _, t := range arrivals {
			// Virtual waiting time decays linearly between arrivals.
			for nextSample < t {
				v := w - (nextSample - prev)
				if v < 0 {
					v = 0
				}
				if nextSample >= warmupTime {
					res.add(v)
				}
				nextSample += q.D * (0.5 + r.Float64())
			}
			w -= t - prev
			if w < 0 {
				w = 0
			}
			w += tau
			prev = t
		}
	}
	return res, nil
}

// simulateMEK1 validates the analytic M/E_K/1 law by the Lindley recursion
// with exponential inter-arrivals and Erlang service.
func simulateMEK1(q MEK1, n int, seed uint64, probes []float64) (*simResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	erl, err := dist.NewErlang(q.K, q.Beta)
	if err != nil {
		return nil, err
	}
	r := dist.NewRNG(seed)
	res := newSimResult(probes)
	w := 0.0
	warmup := n / 10
	for i := 0; i < n+warmup; i++ {
		if i >= warmup {
			res.add(w)
		}
		w += erl.Sample(r) - r.ExpFloat64()/q.Lambda
		if w < 0 {
			w = 0
		}
	}
	return res, nil
}

// mcTol returns a Monte-Carlo comparison tolerance: s sigmas of a binomial
// proportion estimate at level p with n samples.
func mcTol(p float64, n int, s float64) float64 {
	if p < 0 {
		p = 0
	}
	return s*math.Sqrt(p*(1-p)/float64(n)) + 1e-9
}
