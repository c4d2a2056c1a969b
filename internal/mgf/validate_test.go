package mgf_test

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
	"fpsping/internal/scenario"
)

// fuzzRTTSeeds are the /v1/rtt queries service's FuzzRTT seeds map to: the
// default scenario at mid load, the PS=75 uplink corner, K=14 at rho=0.1,
// the Erlang-order cap at high load and the lowest load.
var fuzzRTTSeeds = []string{
	"k=9&ps=124.932&t=40.0025&load=0.5&q=0.9949995",
	"k=9&ps=75&t=40.0025&load=0.9374890000213334&q=0.9949995",
	"k=14&ps=124.932&t=40.0025&load=0.10000080000000001&q=0.9989991",
	"k=200&ps=124.932&t=40.0025&load=0.9499991&q=0.99989901",
	"k=2&ps=1352&t=6.95&load=1e-06&q=0.99",
}

// TestValidateGridMatchesTail checks the tails Validate probes, one complex
// exponential per pole carried across the grid by a running product,
// against direct Mix.Tail at the same abscissae, within 1e-12 absolute. It
// covers the D/E_K/1 wait laws of K 2-200 from a vanishing load to 0.999
// and the three factors of every FuzzRTT seed.
func TestValidateGridMatchesTail(t *testing.T) {
	check := func(name string, m mgf.Mix) {
		t.Helper()
		xs, tails := mgf.ValidateProbes(m)
		for i, x := range xs {
			if d := math.Abs(tails[i] - m.Tail(x)); !(d <= 1e-12) {
				t.Errorf("%s: probe %d (x=%g): grid tail %v, Tail %v", name, i, x, tails[i], m.Tail(x))
				return
			}
		}
	}
	const period = 0.05
	ks := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 20, 25, 30, 40, 50, 64, 80, 100, 128, 156, 180, 200}
	loads := []float64{1e-6, 1e-4, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 0.95, 0.999}
	laws, rejected := 0, 0
	for _, k := range ks {
		for _, rho := range loads {
			q, err := queueing.NewDEK1(k, rho*period, period)
			if err != nil {
				t.Fatal(err)
			}
			w, err := q.WaitMix()
			if errors.Is(err, mgf.ErrInvalid) {
				// Validate's own verdict on the grid: no law to compare.
				rejected++
				continue
			}
			if err != nil {
				t.Fatalf("K=%d rho=%g: %v", k, rho, err)
			}
			laws++
			check(fmt.Sprintf("W K=%d rho=%g", k, rho), w)
		}
	}
	if laws < len(ks)*len(loads)*9/10 {
		t.Errorf("only %d of %d W laws validate", laws, len(ks)*len(loads))
	}
	for _, query := range fuzzRTTSeeds {
		v, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.FromQuery(v)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		cm, err := sc.Model().Compile()
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		u, w, p := cm.Law().Law().Factors()
		for _, f := range []struct {
			name string
			m    mgf.Mix
		}{{"U", u}, {"W", w}, {"P", p}} {
			check(query+" "+f.name, f.m)
		}
	}
	t.Logf("%d W laws checked, %d rejected by Validate", laws, rejected)
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
