package mgf

import (
	"math"
	"testing"
	"testing/quick"
)

// randomMix builds a normalized mix from fuzz inputs: an atom plus up to
// three real Erlang terms with distinct poles.
func randomMix(atomRaw uint8, ks [3]uint8, rates [3]uint8, weights [3]uint8) Mix {
	var m Mix
	total := float64(atomRaw%64) / 255
	m.Atom = total
	type comp struct {
		k    int
		rate float64
		w    float64
	}
	var comps []comp
	for i := 0; i < 3; i++ {
		w := float64(weights[i]%100) + 1
		k := 1 + int(ks[i]%6)
		rate := 0.25 * float64(1+rates[i]%40) * (1 + float64(i)) // distinct scales
		comps = append(comps, comp{k, rate, w})
	}
	var wsum float64
	for _, c := range comps {
		wsum += c.w
	}
	for _, c := range comps {
		weight := c.w / wsum * (1 - total)
		coef := make([]complex128, c.k)
		coef[c.k-1] = complex(weight, 0)
		m.AddTerm(complex(c.rate, 0), coef)
	}
	return m
}

func mixesClose(a, b Mix, probes []float64, tol float64) bool {
	for _, x := range probes {
		if math.Abs(a.Tail(x)-b.Tail(x)) > tol {
			return false
		}
	}
	return true
}

func TestMulCommutativeProperty(t *testing.T) {
	f := func(a1 uint8, k1, r1, w1 [3]uint8, a2 uint8, k2, r2, w2 [3]uint8) bool {
		x := randomMix(a1, k1, r1, w1)
		y := randomMix(a2, k2, r2, w2)
		if estimateMulError(x, y) > 1e-10 {
			return true // ill-conditioned expansions may differ in rounding
		}
		xy := mul(x, y)
		yx := mul(y, x)
		probes := []float64{0.01, 0.1, 0.5, 2, 10}
		return mixesClose(xy, yx, probes, 1e-8) &&
			math.Abs(xy.Mean()-yx.Mean()) < 1e-8*(1+math.Abs(xy.Mean()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMulAssociativeProperty(t *testing.T) {
	f := func(a1 uint8, k1, r1, w1 [3]uint8, a2 uint8, k2, r2, w2 [3]uint8, a3 uint8, k3, r3, w3 [3]uint8) bool {
		x := randomMix(a1, k1, r1, w1)
		y := randomMix(a2, k2, r2, w2)
		z := randomMix(a3, k3, r3, w3)
		// Guard against fuzz-built near-coincident cross poles, where the
		// expansions legitimately differ in rounding, including the cross
		// terms of each pairwise product with the third factor.
		xy, yz := mul(x, y), mul(y, z)
		if estimateMulError(x, y)+estimateMulError(y, z)+estimateMulError(x, z)+
			estimateMulError(xy, z)+estimateMulError(x, yz) > 1e-10 {
			return true
		}
		l := mul(xy, z)
		r := mul(x, yz)
		probes := []float64{0.01, 0.1, 0.5, 2, 10}
		return mixesClose(l, r, probes, 1e-7)
	}
	// The guard skips ~96% of draws, so 150 draws compare about as many
	// triples as 25 did under the pairwise-only guard (~81% skipped).
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMulPreservesMassAndMeanProperty(t *testing.T) {
	f := func(a1 uint8, k1, r1, w1 [3]uint8, a2 uint8, k2, r2, w2 [3]uint8) bool {
		x := randomMix(a1, k1, r1, w1)
		y := randomMix(a2, k2, r2, w2)
		// Close (but unequal) cross poles amplify rounding in the expansion;
		// that regime is Sum's job, not mul's.
		if estimateMulError(x, y) > 1e-10 {
			return true
		}
		m := mul(x, y)
		if math.Abs(m.TotalMass()-x.TotalMass()*y.TotalMass()) > 1e-8 {
			return false
		}
		wantMean := x.Mean() + y.Mean() // both normalized to mass 1
		return math.Abs(m.Mean()-wantMean) < 1e-8*(1+wantMean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScaleLinearityProperty(t *testing.T) {
	f := func(a1 uint8, k1, r1, w1 [3]uint8, wRaw uint8) bool {
		x := randomMix(a1, k1, r1, w1)
		w := float64(wRaw%100) / 50
		s := x.Scale(w)
		for _, p := range []float64{0.1, 1, 5} {
			if math.Abs(s.Tail(p)-w*x.Tail(p)) > 1e-10 {
				return false
			}
		}
		return math.Abs(s.TotalMass()-w*x.TotalMass()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTailMonotoneProperty(t *testing.T) {
	f := func(a1 uint8, k1, r1, w1 [3]uint8) bool {
		x := randomMix(a1, k1, r1, w1)
		prev := math.Inf(1)
		for i := 0; i <= 40; i++ {
			v := x.Tail(float64(i) * 0.25)
			if v > prev+1e-10 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// simpleMix builds a normalized atom plus up to three simple real poles
// from fuzz inputs: the shape of U and W in a Sum.
func simpleMix(atomRaw uint8, rates, weights [3]uint8) Mix {
	m := Mix{Atom: float64(atomRaw%64) / 255}
	var wsum float64
	for _, w := range weights {
		wsum += float64(w%100) + 1
	}
	for i := 0; i < 3; i++ {
		rate := 0.25 * float64(1+rates[i]%40) * (1 + float64(i))
		weight := (float64(weights[i]%100) + 1) / wsum * (1 - m.Atom)
		m.AddTerm(complex(rate, 0), []complex128{complex(weight, 0)})
	}
	return m
}

func TestSumMatchesMulProperty(t *testing.T) {
	f := func(a1 uint8, r1, w1 [3]uint8, a2 uint8, r2, w2 [3]uint8, kRaw, rateRaw uint8) bool {
		u := simpleMix(a1, r1, w1)
		w := simpleMix(a2, r2, w2)
		k, rate := 2+int(kRaw%6), 0.3*float64(1+rateRaw%30)
		p := positionLaw(k, rate)
		up := mul(u, p)
		if estimateMulError(u, p)+estimateMulError(w, up) > 1e-10 {
			return true
		}
		m := mul(w, up)
		s, err := NewSum(u, w, k, rate)
		if err != nil {
			return false
		}
		for _, x := range []float64{0.05, 0.5, 3} {
			if math.Abs(m.Tail(x)-s.Tail(x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
