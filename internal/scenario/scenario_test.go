package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// randomScenario draws a valid scenario across the parameter ranges the CLI
// and daemon realistically see.
func randomScenario(r *rand.Rand) scenario.Scenario {
	s := scenario.Scenario{
		Gamers:            1 + 199*r.Float64(),
		ClientPacketBytes: 40 + 160*r.Float64(),
		ServerPacketBytes: 60 + 240*r.Float64(),
		BurstIntervalMs:   10 + 90*r.Float64(),
		UplinkKbit:        64 + 960*r.Float64(),
		DownlinkKbit:      512 + 3584*r.Float64(),
		AggregateKbit:     2000 + 8000*r.Float64(),
		ErlangOrder:       2 + r.IntN(19),
		Quantile:          0.9 + 0.09999*r.Float64(),
	}
	if r.IntN(2) == 0 {
		s.ClientIntervalMs = 10 + 90*r.Float64()
	}
	if r.IntN(3) == 0 {
		s.FixedMs = 5 * r.Float64()
	}
	if r.IntN(2) == 0 {
		s.Load = 0.05 + 0.85*r.Float64()
	}
	return s
}

// fmtF spells a float the way a user would on a command line, without
// rounding (shortest round-trip form).
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// spellings returns the same scenario as CLI args, query parameters and
// JSON.
func spellings(s scenario.Scenario) (args []string, query url.Values, body []byte) {
	pairs := [][2]string{
		{"gamers", fmtF(s.Gamers)},
		{"pc", fmtF(s.ClientPacketBytes)},
		{"ps", fmtF(s.ServerPacketBytes)},
		{"t", fmtF(s.BurstIntervalMs)},
		{"d", fmtF(s.ClientIntervalMs)},
		{"rup", fmtF(s.UplinkKbit)},
		{"rdown", fmtF(s.DownlinkKbit)},
		{"c", fmtF(s.AggregateKbit)},
		{"k", strconv.Itoa(s.ErlangOrder)},
		{"q", fmtF(s.Quantile)},
		{"fixed", fmtF(s.FixedMs)},
		{"load", fmtF(s.Load)},
	}
	query = url.Values{}
	for _, p := range pairs {
		args = append(args, "-"+p[0]+"="+p[1])
		query.Set(p[0], p[1])
	}
	return args, query, s.JSON()
}

// TestRoundTripPropertyFlagsQueryJSON is the shared-vocabulary property:
// however a random scenario is spelled - CLI flags, URL query, JSON - the
// parsed Scenario is identical, and so is its canonical cache key.
func TestRoundTripPropertyFlagsQueryJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 2026))
	for i := 0; i < 300; i++ {
		want := randomScenario(r)
		args, query, body := spellings(want)

		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		got := scenario.Flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("case %d: flags: %v", i, err)
		}
		if *got != want {
			t.Fatalf("case %d: flag round trip:\n got %+v\nwant %+v", i, *got, want)
		}

		fromQuery, err := scenario.FromQuery(query)
		if err != nil {
			t.Fatalf("case %d: query: %v", i, err)
		}
		if fromQuery != want {
			t.Fatalf("case %d: query round trip:\n got %+v\nwant %+v", i, fromQuery, want)
		}

		fromJSON, err := scenario.FromJSON(body)
		if err != nil {
			t.Fatalf("case %d: json: %v", i, err)
		}
		if fromJSON != want {
			t.Fatalf("case %d: json round trip:\n got %+v\nwant %+v", i, fromJSON, want)
		}

		if a, b := fromQuery.Canonical(), fromJSON.Canonical(); a != b || a != want.Canonical() {
			t.Fatalf("case %d: canonical keys diverge across spellings", i)
		}
	}
}

// TestCanonicalResolvesDefaults pins that spelling a default explicitly
// (d = t, the default quantile, load in place of gamers) lands on the same
// cache key, while a genuinely different scenario does not.
func TestCanonicalResolvesDefaults(t *testing.T) {
	base := scenario.Default()

	explicitD := base
	explicitD.ClientIntervalMs = base.BurstIntervalMs
	if base.Canonical() != explicitD.Canonical() {
		t.Error("explicit d = t should share the cache key with d = 0")
	}

	viaLoad := base
	viaLoad.Gamers = 1 // overridden by Load below
	viaLoad.Load = base.Model().DownlinkLoad()
	if base.Canonical() != viaLoad.Canonical() {
		t.Error("load spelling should share the cache key with the gamers spelling")
	}

	other := base
	other.Gamers++
	if base.Canonical() == other.Canonical() {
		t.Error("different scenarios must not share a cache key")
	}
	bumpK := base
	bumpK.ErlangOrder++
	if base.Canonical() == bumpK.Canonical() {
		t.Error("different Erlang orders must not share a cache key")
	}
}

// fmtCanonical spells the canonical key format with fmt: "%016x|" per
// resolved float, then "k%d". Ring placement, snapshot keys and fpsload's
// hashing all read these bytes, so TestCanonicalMatchesFmtForm holds
// Canonical to it.
func fmtCanonical(s scenario.Scenario) string {
	m := s.Model()
	if m.ClientInterval == 0 {
		m.ClientInterval = m.BurstInterval
	}
	if m.Quantile == 0 {
		m.Quantile = core.DefaultQuantile
	}
	var b strings.Builder
	for _, v := range []float64{
		m.Gamers, m.ClientPacketBytes, m.ServerPacketBytes,
		m.BurstInterval, m.ClientInterval,
		m.UplinkAccessRate, m.DownlinkAccessRate, m.AggregateRate,
		m.Quantile, m.FixedDelay,
	} {
		fmt.Fprintf(&b, "%016x|", math.Float64bits(v))
	}
	fmt.Fprintf(&b, "k%d", m.ErlangOrder)
	return b.String()
}

// TestCanonicalGoldenKey pins the §4 reference scenario's key byte for byte.
func TestCanonicalGoldenKey(t *testing.T) {
	const want = "4054000000000000|4054000000000000|405f400000000000|3fa47ae147ae147b|3fa47ae147ae147b|" +
		"40ff400000000000|412f400000000000|415312d000000000|3fefffeb074a771d|0000000000000000|k9"
	if got := scenario.Default().Canonical(); got != want {
		t.Errorf("Default().Canonical() =\n %s\nwant\n %s", got, want)
	}
}

// TestCanonicalMatchesFmtForm compares Canonical with the fmt form over a
// seeded grid: realistic scenarios, arbitrary float bit patterns (NaN, Inf,
// negative zero, subnormals) and Erlang orders of every sign and width.
func TestCanonicalMatchesFmtForm(t *testing.T) {
	r := rand.New(rand.NewPCG(30, 1))
	ks := []int{0, 1, 9, 200, -1, -42, math.MaxInt, math.MinInt}
	for i := 0; i < 20000; i++ {
		s := randomScenario(r)
		if i%2 == 1 {
			for _, f := range []*float64{&s.Gamers, &s.ClientPacketBytes, &s.ServerPacketBytes,
				&s.BurstIntervalMs, &s.ClientIntervalMs, &s.UplinkKbit, &s.DownlinkKbit,
				&s.AggregateKbit, &s.Quantile, &s.FixedMs} {
				if r.IntN(3) == 0 {
					*f = math.Float64frombits(r.Uint64())
				}
			}
			s.ErlangOrder = ks[r.IntN(len(ks))]
			if r.IntN(4) == 0 {
				s.ErlangOrder = int(r.Int64())
			}
		}
		if got, want := s.Canonical(), fmtCanonical(s); got != want {
			t.Fatalf("scenario %+v:\nCanonical %s\nfmt form  %s", s, got, want)
		}
	}
}

// TestCanonicalAllocs pins the key at one allocation: every request and
// every sweep or dimensioning probe builds one.
func TestCanonicalAllocs(t *testing.T) {
	s := scenario.Default()
	s.Load = 0.5
	if n := testing.AllocsPerRun(100, func() { _ = s.Canonical() }); n != 1 {
		t.Errorf("Canonical allocates %v times per key, want 1", n)
	}
}

func TestFromJSONRejectsUnknownKeys(t *testing.T) {
	if _, err := scenario.FromJSON([]byte(`{"gamer": 80}`)); err == nil {
		t.Error("typoed key accepted")
	}
	if _, err := scenario.FromJSON([]byte(`{"gamers": "eighty"}`)); err == nil {
		t.Error("non-numeric value accepted")
	}
	for _, trailing := range []string{`{"gamers":64} {"gamers":70}`, `{"gamers":64}xyz`, `{"gamers":64}]`} {
		if _, err := scenario.FromJSON([]byte(trailing)); err == nil {
			t.Errorf("%s: data after the object accepted", trailing)
		}
	}
	s, err := scenario.FromJSON([]byte(`{"ps": 250} ` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerPacketBytes != 250 || s.Gamers != scenario.Default().Gamers {
		t.Errorf("absent keys should keep defaults: %+v", s)
	}
}

func TestFromQueryAndSetErrors(t *testing.T) {
	if _, err := scenario.FromQuery(url.Values{"k": {"nine"}}); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := scenario.FromQuery(url.Values{"t": {"fast"}}); err == nil {
		t.Error("bad float accepted")
	}
	// Unknown query keys are rejected unless the endpoint allowlists them
	// (sweep stacks from/to/step on the same query).
	if _, err := scenario.FromQuery(url.Values{"gamer": {"42"}}); err == nil {
		t.Error("typoed query key accepted")
	}
	s, err := scenario.FromQuery(url.Values{"from": {"0.1"}, "gamers": {"42"}}, "from", "to", "step")
	if err != nil {
		t.Fatal(err)
	}
	if s.Gamers != 42 {
		t.Errorf("gamers = %g", s.Gamers)
	}
	var sc scenario.Scenario
	if err := sc.Set("nope", "1"); err == nil {
		t.Error("unknown parameter accepted")
	}
}

// TestFromQueryNamesFirstUnknownKey pins one answer per query: with several
// unknown keys the error names the first in sorted order, whatever order
// the query's map yields them in.
func TestFromQueryNamesFirstUnknownKey(t *testing.T) {
	v, err := url.ParseQuery("bound30k=&4=&zz=1&gamers=40")
	if err != nil {
		t.Fatal(err)
	}
	for range 100 {
		_, err := scenario.FromQuery(v, "bound", "bound_ms")
		if err == nil || err.Error() != `scenario: unknown parameter "4"` {
			t.Fatalf("error %v; want the sorted-first unknown key \"4\"", err)
		}
	}
}

func TestValidate(t *testing.T) {
	s := scenario.Default()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Load = -0.5
	if err := s.Validate(); err == nil {
		t.Error("negative load accepted")
	}
	s = scenario.Default()
	s.ErlangOrder = 1
	if err := s.Validate(); err == nil {
		t.Error("K=1 accepted")
	}
}

func TestStringMentionsResolvedModel(t *testing.T) {
	s := scenario.Default()
	s.Load = 0.5
	str := s.String()
	if !strings.Contains(str, "Model{") {
		t.Errorf("String() = %q", str)
	}
}

// TestCLIAndDaemonProduceIdenticalNumbers pins the shared-scenario promise:
// the numbers the CLI's rtt command computes (via core.Model directly, as
// cmd/fpsping does) and the numbers the daemon's /v1/rtt endpoint serves
// (via service.Engine) are bit-identical for the same scenario, cold and
// cached.
func TestCLIAndDaemonProduceIdenticalNumbers(t *testing.T) {
	e := service.NewEngine(2, 0)
	r := rand.New(rand.NewPCG(11, 2026))
	for i := 0; i < 5; i++ {
		sc := randomScenario(r)
		m := sc.Model()

		comp, err := m.Decompose()
		if err != nil {
			// Random point may be unstable; the daemon must agree that too.
			if _, _, derr := e.RTT(sc); derr == nil {
				t.Fatalf("case %d: CLI path unstable (%v) but daemon answered", i, err)
			}
			continue
		}
		mean, err := m.MeanRTT()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}

		for pass, wantCached := range []bool{false, true} {
			res, cached, err := e.RTT(sc)
			if err != nil {
				t.Fatalf("case %d: daemon: %v", i, err)
			}
			if cached != wantCached {
				t.Fatalf("case %d pass %d: cached = %v", i, pass, cached)
			}
			if res.QuantileMs != 1000*comp.Total {
				t.Errorf("case %d: quantile daemon %v != CLI %v", i, res.QuantileMs, 1000*comp.Total)
			}
			if res.MeanMs != 1000*mean {
				t.Errorf("case %d: mean daemon %v != CLI %v", i, res.MeanMs, 1000*mean)
			}
			got := res.Components
			want := []float64{1000 * comp.Serialization, 1000 * comp.Fixed,
				1000 * comp.Upstream, 1000 * comp.BurstWait, 1000 * comp.Position}
			have := []float64{got.Serialization, got.Fixed, got.Upstream, got.BurstWait, got.Position}
			for j := range want {
				if have[j] != want[j] {
					t.Errorf("case %d: component %d daemon %v != CLI %v", i, j, have[j], want[j])
				}
			}
			// The CLI's printed lines, rendered from either source, match
			// byte for byte.
			cli := fmt.Sprintf("RTT quantile  %8.2f ms", 1000*comp.Total)
			daemon := fmt.Sprintf("RTT quantile  %8.2f ms", res.QuantileMs)
			if !bytes.Equal([]byte(cli), []byte(daemon)) {
				t.Errorf("case %d: rendered lines differ: %q vs %q", i, cli, daemon)
			}
		}
	}
}
