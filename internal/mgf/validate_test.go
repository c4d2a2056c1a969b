package mgf_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
	"fpsping/internal/runner"
)

// gridLoads is the load grid of TestWaitTailScanOverVocabulary: 0.001 to
// 0.999 in steps of 0.001, then 1-10^-e for e = 4...9.
func gridLoads() []float64 {
	var loads []float64
	for i := 1; i <= 999; i++ {
		loads = append(loads, float64(i)/1000)
	}
	for e := 4; e <= 9; e++ {
		loads = append(loads, 1-math.Pow10(-e))
	}
	return loads
}

// servedWait returns the D/E_K/1 (mek1 false) or M/E_K/1 wait law at Erlang
// order k and load rho as the queue serves it: DEK1.WaitMix, which returns
// the unit atom without a solve where the wait is negligible, or
// MEK1.Solve followed by WaitMix.
func servedWait(k int, rho float64, mek1 bool) (mgf.Mix, error) {
	if !mek1 {
		q, err := queueing.NewDEK1(k, rho*0.05, 0.05)
		if err != nil {
			return mgf.Mix{}, err
		}
		return q.WaitMix()
	}
	sol, err := solveWait(k, rho, true)
	if err != nil {
		return mgf.Mix{}, err
	}
	return sol.WaitMix()
}

// TestWaitTailScanOverVocabulary scans the tail of every wait law either
// queue can serve. (K, rho) fix each queue's W up to its time scale, so
// K 1-200 x gridLoads, 201,000 laws per queue, covers the vocabulary that
// Validate's O(poles) checks stand for at serve time. Every law Validate
// accepts passes tailScan. The rejected laws are pinned: none for D/E_K/1;
// for M/E_K/1 993, all near saturation (rho >= 1-1e-4), each an
// mgf.ErrInvalid from the total-mass check, and their (K, rho) list by its
// FNV-64a digest. The K values run in parallel.
func TestWaitTailScanOverVocabulary(t *testing.T) {
	loads := gridLoads()
	for _, queue := range []struct {
		name     string
		mek1     bool
		rejected int
		digest   uint64
	}{
		{"DEK1", false, 0, 0xcbf29ce484222325}, // FNV-64a of nothing
		{"MEK1", true, 993, 0x927a0921bd59ae45},
	} {
		t.Run(queue.name, func(t *testing.T) {
			type verdicts struct {
				rejected []float64 // the loads whose W Validate rejects
				atoms    int       // the laws served as the unit atom
			}
			perK, _ := runner.TryMap(200, runner.Options{}, func(j int) (verdicts, error) {
				var v verdicts
				k := j + 1
				for _, rho := range loads {
					w, err := servedWait(k, rho, queue.mek1)
					if err != nil {
						if !errors.Is(err, mgf.ErrInvalid) || !strings.Contains(err.Error(), "total mass") || rho < 1-1e-4 {
							t.Errorf("K=%d rho=%g: %v", k, rho, err)
						}
						v.rejected = append(v.rejected, rho)
						continue
					}
					if len(w.Terms) == 0 {
						v.atoms++
					}
					if err := mgf.TailScan(w); err != nil {
						t.Errorf("K=%d rho=%g: Validate accepts W, but %v", k, rho, err)
					}
				}
				return v, nil
			})
			rejected, atoms := 0, 0
			h := fnv.New64a()
			for j, v := range perK {
				for _, rho := range v.rejected {
					fmt.Fprintf(h, "%d %v\n", j+1, rho)
				}
				rejected += len(v.rejected)
				atoms += v.atoms
			}
			if rejected != queue.rejected || h.Sum64() != queue.digest {
				t.Errorf("%d laws rejected (digest %#x), want %d (%#x)", rejected, h.Sum64(), queue.rejected, queue.digest)
			}
			t.Logf("%d laws, %d rejected, %d the unit atom", 200*len(loads), rejected, atoms)
		})
	}
}

// paperSum is the compiled delay law of the Figure 3 scenario at Erlang
// order k and downlink load rho.
func paperSum(tb testing.TB, k int, rho float64) mgf.Sum {
	tb.Helper()
	return compiledSum(tb, paperModel(k).WithDownlinkLoad(rho))
}

// compiledSum is the compiled delay law of m.
func compiledSum(tb testing.TB, m core.Model) mgf.Sum {
	tb.Helper()
	cm, err := m.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return cm.Law().Law()
}

// BenchmarkMixValidate measures Validate on the D/E_K/1 wait law of the
// Figure 3 scenario at rho=0.5, the check every Compile runs on W.
func BenchmarkMixValidate(b *testing.B) {
	for _, k := range []int{9, 30} {
		_, w, _ := paperSum(b, k, 0.5).Factors()
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for b.Loop() {
				if err := w.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSumSeed measures the factor seed of one Sum inversion on the
// Figure 3 scenario at rho=0.5 and the model's quantile level.
func BenchmarkSumSeed(b *testing.B) {
	for _, k := range []int{9, 30} {
		s := paperSum(b, k, 0.5)
		p := paperModel(k).QuantileLevel()
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for b.Loop() {
				mgf.SeedOf(s, p)
			}
		})
	}
}
