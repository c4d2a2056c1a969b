package traffic

import (
	"math"
	"testing"

	"fpsping/internal/dist"
	"fpsping/internal/stats"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range AllModels() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if m.Source == "" || m.Notes == "" {
			t.Errorf("%s: missing provenance", m.Name)
		}
	}
}

func TestCounterStrikeMatchesTable1(t *testing.T) {
	// Table 1's approximations: Ext(120,36) server sizes, Ext(55,6)ms burst
	// IATs, Ext(80,5.7) client sizes, Det(40)ms client IATs. Sampling the
	// model must reproduce the law means.
	m := CounterStrike()
	r := dist.NewRNG(101)
	ss := dist.SampleN(m.Server.PacketSize, r, 200_000)
	sum := stats.Describe(ss)
	wantMean := 120 + dist.EulerGamma*36
	if math.Abs(sum.Mean()-wantMean) > 1 {
		t.Errorf("server size mean %v, want ~%v", sum.Mean(), wantMean)
	}
	iat := dist.SampleN(m.Server.IAT, r, 200_000)
	isum := stats.Describe(iat)
	wantIAT := (55 + dist.EulerGamma*6) / 1000
	if math.Abs(isum.Mean()-wantIAT) > 0.0003 {
		t.Errorf("burst IAT mean %v, want ~%v", isum.Mean(), wantIAT)
	}
	if m.Client[0].IAT.Mean() != 0.040 {
		t.Errorf("client IAT %v, want 0.040", m.Client[0].IAT.Mean())
	}
	cs := dist.SampleN(m.Client[0].Size, r, 100_000)
	csum := stats.Describe(cs)
	if math.Abs(csum.Mean()-(80+dist.EulerGamma*5.7)) > 0.5 {
		t.Errorf("client size mean %v", csum.Mean())
	}
	// Paper notes the measured client CoV 0.12; Ext(80,5.7) gives ~0.09.
	if c := csum.CoV(); c < 0.05 || c > 0.15 {
		t.Errorf("client size CoV %v out of band", c)
	}
}

func TestHalfLifeMatchesTable2(t *testing.T) {
	m := HalfLife("crossfire")
	if m.Server.IAT.Mean() != 0.060 {
		t.Errorf("burst IAT %v, want Det(60ms)", m.Server.IAT.Mean())
	}
	if m.Client[0].IAT.Mean() != 0.041 {
		t.Errorf("client IAT %v, want Det(41ms)", m.Client[0].IAT.Mean())
	}
	// Map dependency: different maps change the server size law.
	m2 := HalfLife("dust")
	if m.Server.PacketSize.Mean() == m2.Server.PacketSize.Mean() {
		t.Error("map dependency missing")
	}
	// Unknown maps fall back.
	m3 := HalfLife("nosuchmap")
	if m3.Server.PacketSize.Mean() != m.Server.PacketSize.Mean() {
		t.Error("fallback map broken")
	}
	// Client sizes live in the paper's 60-90B band (middle 99%).
	if f := m.Client[0].Size.CDF(55); f > 0.005 {
		t.Errorf("client size P(<= 55B) = %v, want p0.5%% >= 55B", f)
	}
	if f := m.Client[0].Size.CDF(95); f < 0.995 {
		t.Errorf("client size P(<= 95B) = %v, want p99.5%% <= 95B", f)
	}
}

func TestHaloTwoClientClasses(t *testing.T) {
	m := Halo(2)
	if len(m.Client) != 2 {
		t.Fatalf("client flows = %d, want 2", len(m.Client))
	}
	// Beacon class: fixed 72B every 201ms (paper).
	if m.Client[0].Size.Mean() != 72 || m.Client[0].IAT.Mean() != 0.201 {
		t.Errorf("beacon class %v/%v", m.Client[0].Size.Mean(), m.Client[0].IAT.Mean())
	}
	if m.Server.IAT.Mean() != 0.040 {
		t.Errorf("server IAT %v", m.Server.IAT.Mean())
	}
	// Player dependency.
	if Halo(4).Server.PacketSize.Mean() <= Halo(1).Server.PacketSize.Mean() {
		t.Error("server size should grow with players")
	}
	// Everything deterministic: System Link traffic is "strongly periodic".
	if dist.CoV(m.Server.PacketSize) != 0 || dist.CoV(m.Client[1].IAT) != 0 {
		t.Error("Halo flows should be deterministic")
	}
}

func TestQuake3Bands(t *testing.T) {
	m := Quake3(8, 20)
	if m.Server.IAT.Mean() != 0.050 {
		t.Errorf("server tick %v, want 50ms", m.Server.IAT.Mean())
	}
	// Server sizes stay in the paper's 50-400B band for the bulk.
	if f := m.Server.PacketSize.CDF(420); f < 0.99 {
		t.Errorf("server size P(<= 420B) = %v, want p99 <= 420B", f)
	}
	// Client sizes 50-70B.
	if f := m.Client[0].Size.CDF(45); f > 0.01 {
		t.Errorf("client size P(<= 45B) = %v, want p1 >= 45B", f)
	}
	if f := m.Client[0].Size.CDF(75); f < 0.99 {
		t.Errorf("client size P(<= 75B) = %v, want p99 <= 75B", f)
	}
	// IAT clamped to the 10-30ms band.
	if Quake3(2, 5).Client[0].IAT.Mean() != 0.010 {
		t.Error("IAT clamp low broken")
	}
	if Quake3(2, 99).Client[0].IAT.Mean() != 0.030 {
		t.Error("IAT clamp high broken")
	}
	// Player dependency on server sizes.
	if Quake3(16, 20).Server.PacketSize.Mean() <= Quake3(2, 20).Server.PacketSize.Mean() {
		t.Error("player dependency missing")
	}
}

func TestUnrealTournamentMatchesTable3Moments(t *testing.T) {
	m := UnrealTournament()
	r := dist.NewRNG(102)
	cases := []struct {
		name     string
		d        dist.Distribution
		mean     float64
		cov      float64
		meanTol  float64
		covTol   float64
		absolute bool
	}{
		{"server size", m.Server.PacketSize, 154, 0.28, 0.02, 0.02, false},
		{"burst IAT", m.Server.IAT, 0.047, 0.07, 0.02, 0.02, false},
		{"client size", m.Client[0].Size, 73, 0.06, 0.02, 0.02, false},
		{"client IAT", m.Client[0].IAT, 0.030, 0.65, 0.02, 0.04, false},
	}
	for _, c := range cases {
		xs := dist.SampleN(c.d, r, 300_000)
		s := stats.Describe(xs)
		if math.Abs(s.Mean()-c.mean)/c.mean > c.meanTol {
			t.Errorf("%s mean %v, want %v", c.name, s.Mean(), c.mean)
		}
		if math.Abs(s.CoV()-c.cov) > c.covTol+0.02*c.cov {
			t.Errorf("%s CoV %v, want %v", c.name, s.CoV(), c.cov)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	var bad Model
	if err := bad.Validate(); err == nil {
		t.Error("empty model validated")
	}
}

func TestOfferedRates(t *testing.T) {
	m := CounterStrike()
	// Server for 12 clients: 12 * ~140.8B / ~58.5ms = ~231 kbit/s.
	down := m.OfferedDownstreamBitRate(12)
	if down < 200_000 || down > 260_000 {
		t.Errorf("downstream rate %v", down)
	}
}
