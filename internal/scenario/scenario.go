// Package scenario is the single vocabulary for describing an access-network
// gaming scenario across every front end: the fpsping CLI consumes it as
// flags, the fpspingd daemon as JSON bodies or URL query parameters. All
// three surfaces share one field table, so a flag named -ps, a JSON key "ps"
// and a query parameter ps=125 are the same parameter by construction, in
// the same human-friendly units (bytes, milliseconds, kbit/s).
//
// A Scenario converts to the model-layer core.Model (SI units, resolved
// defaults) with Model(), and to a canonical cache key with Canonical():
// two scenarios that resolve to the same model share the same key, which is
// what the daemon's memo cache is keyed on.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/url"
	"slices"
	"strconv"

	"fpsping/internal/core"
)

// Scenario mirrors the CLI's scenario flags one-to-one. Units are the flag
// units of the paper's §4: packet sizes in bytes, intervals in milliseconds,
// rates in kbit/s. The zero value is not useful; start from Default().
type Scenario struct {
	// Gamers is N, the number of active players behind the aggregation link.
	Gamers float64 `json:"gamers"`
	// ClientPacketBytes is PC, the client update size [bytes].
	ClientPacketBytes float64 `json:"pc"`
	// ServerPacketBytes is PS, the mean per-client server packet size [bytes].
	ServerPacketBytes float64 `json:"ps"`
	// BurstIntervalMs is T, the server tick interval [ms].
	BurstIntervalMs float64 `json:"t"`
	// ClientIntervalMs is D, the client update period [ms]; 0 means "= T".
	ClientIntervalMs float64 `json:"d,omitempty"`
	// UplinkKbit is Rup, the per-gamer upstream access rate [kbit/s].
	UplinkKbit float64 `json:"rup"`
	// DownlinkKbit is Rdown, the per-gamer downstream access rate [kbit/s].
	DownlinkKbit float64 `json:"rdown"`
	// AggregateKbit is C, the aggregation link rate [kbit/s].
	AggregateKbit float64 `json:"c"`
	// ErlangOrder is K, the burst-size Erlang order.
	ErlangOrder int `json:"k"`
	// Quantile is the RTT quantile level in (0,1).
	Quantile float64 `json:"q"`
	// FixedMs is extra fixed delay (propagation + processing) [ms].
	FixedMs float64 `json:"fixed,omitempty"`
	// Load, when > 0, sets the downlink load instead of Gamers (eq. 37
	// inverted), exactly like the CLI's -load flag.
	Load float64 `json:"load,omitempty"`
}

// Default returns the §4 DSL reference scenario the CLI flags default to:
// 80 gamers, 80/125-byte packets, 40 ms ticks, 128/1024 kbit/s access,
// 5 Mbit/s aggregation, Erlang(9) bursts, the 99.999% quantile.
func Default() Scenario {
	return Scenario{
		Gamers:            80,
		ClientPacketBytes: 80,
		ServerPacketBytes: 125,
		BurstIntervalMs:   40,
		UplinkKbit:        128,
		DownlinkKbit:      1024,
		AggregateKbit:     5000,
		ErlangOrder:       9,
		Quantile:          core.DefaultQuantile,
	}
}

// field is one row of the shared parameter table: a name (flag name, JSON
// key and query key all at once), a usage string, and a pointer into the
// Scenario (exactly one of flt/num is set).
type field struct {
	name  string
	usage string
	flt   *float64
	num   *int
}

// fields returns the parameter table bound to s. Order is the canonical
// presentation order (also the order Canonical() serializes resolved values
// in).
func (s *Scenario) fields() []field {
	return []field{
		{name: "gamers", usage: "number of gamers N", flt: &s.Gamers},
		{name: "pc", usage: "client packet size [bytes]", flt: &s.ClientPacketBytes},
		{name: "ps", usage: "server packet size [bytes]", flt: &s.ServerPacketBytes},
		{name: "t", usage: "burst inter-arrival time T [ms]", flt: &s.BurstIntervalMs},
		{name: "d", usage: "client inter-arrival time D [ms] (0 = T)", flt: &s.ClientIntervalMs},
		{name: "rup", usage: "uplink access rate [kbit/s]", flt: &s.UplinkKbit},
		{name: "rdown", usage: "downlink access rate [kbit/s]", flt: &s.DownlinkKbit},
		{name: "c", usage: "aggregation link rate [kbit/s]", flt: &s.AggregateKbit},
		{name: "k", usage: "Erlang order K of the burst size", num: &s.ErlangOrder},
		{name: "q", usage: "RTT quantile level", flt: &s.Quantile},
		{name: "fixed", usage: "extra fixed delay (propagation+processing) [ms]", flt: &s.FixedMs},
		{name: "load", usage: "set downlink load instead of -gamers (0 = use -gamers)", flt: &s.Load},
	}
}

// Register installs every scenario parameter as a flag on fs, with s's
// current values as the defaults (and as the target of parsing).
func (s *Scenario) Register(fs *flag.FlagSet) {
	for _, f := range s.fields() {
		if f.num != nil {
			fs.IntVar(f.num, f.name, *f.num, f.usage)
		} else {
			fs.Float64Var(f.flt, f.name, *f.flt, f.usage)
		}
	}
}

// Flags registers the scenario vocabulary on fs with Default() defaults and
// returns the Scenario the parsed flags write into.
func Flags(fs *flag.FlagSet) *Scenario {
	s := Default()
	s.Register(fs)
	return &s
}

// Set assigns the named parameter from its string form (the same parsing a
// flag or query parameter gets). Unknown names are an error.
func (s *Scenario) Set(name, value string) error {
	for _, f := range s.fields() {
		if f.name != name {
			continue
		}
		if f.num != nil {
			n, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("scenario: parameter %q: %w", name, err)
			}
			*f.num = n
			return nil
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("scenario: parameter %q: %w", name, err)
		}
		*f.flt = v
		return nil
	}
	return fmt.Errorf("scenario: unknown parameter %q", name)
}

// FromQuery builds a Scenario from URL query parameters, starting from
// Default(); repeated keys take the last value. Keys outside the scenario
// vocabulary are rejected unless listed in extra (endpoints stack their own
// keys, like from/to/step, on the same query), so a typoed parameter fails
// loudly instead of silently evaluating the default scenario. The error
// names the first unknown key in sorted order, so one query always gets one
// answer.
func FromQuery(values url.Values, extra ...string) (Scenario, error) {
	s := Default()
	known := make(map[string]bool, len(extra))
	for _, k := range extra {
		known[k] = true
	}
	for _, f := range s.fields() {
		known[f.name] = true
		if vs, ok := values[f.name]; ok && len(vs) > 0 {
			if err := s.Set(f.name, vs[len(vs)-1]); err != nil {
				return s, err
			}
		}
	}
	var unknown []string
	for key := range values {
		if !known[key] {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		return s, fmt.Errorf("scenario: unknown parameter %q", slices.Min(unknown))
	}
	return s, nil
}

// FromJSON decodes a Scenario from JSON, starting from Default() so absent
// keys keep their defaults. Unknown keys are rejected, so a typoed "gamer"
// fails loudly instead of silently modeling the default population.
func FromJSON(data []byte) (Scenario, error) {
	s := Default()
	if err := UnmarshalStrict(data, &s); err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// UnmarshalStrict decodes exactly one JSON value into v. Keys v does not
// declare are rejected, and so is anything but whitespace after the value,
// so a typoed key or a second concatenated object fails loudly instead of
// being silently ignored. Every JSON input of the daemon decodes through it.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// Model resolves the scenario into the model layer's units: SI units
// throughout, and Load (when set) converted into the equivalent Gamers via
// eq. (37).
func (s Scenario) Model() core.Model {
	m := core.Model{
		Gamers:             s.Gamers,
		ClientPacketBytes:  s.ClientPacketBytes,
		ServerPacketBytes:  s.ServerPacketBytes,
		BurstInterval:      s.BurstIntervalMs / 1000,
		ClientInterval:     s.ClientIntervalMs / 1000,
		UplinkAccessRate:   s.UplinkKbit * 1000,
		DownlinkAccessRate: s.DownlinkKbit * 1000,
		AggregateRate:      s.AggregateKbit * 1000,
		ErlangOrder:        s.ErlangOrder,
		Quantile:           s.Quantile,
		FixedDelay:         s.FixedMs / 1000,
	}
	if s.Load > 0 {
		m = m.WithDownlinkLoad(s.Load)
	}
	return m
}

// Validate checks the scenario by resolving and validating the model it
// denotes, plus what the model's own checks cannot see: the Load shorthand's
// range and float finiteness (NaN slips through ordered comparisons, and a
// NaN parameter would later make the JSON encoder fail on the response).
func (s Scenario) Validate() error {
	for _, f := range (&s).fields() {
		if f.flt != nil && (math.IsNaN(*f.flt) || math.IsInf(*f.flt, 0)) {
			return fmt.Errorf("%w: parameter %q is not finite (%g)", core.ErrBadModel, f.name, *f.flt)
		}
	}
	if s.Load < 0 {
		return fmt.Errorf("%w: negative load %g", core.ErrBadModel, s.Load)
	}
	m := s.Model()
	if math.IsNaN(m.Gamers) || math.IsInf(m.Gamers, 0) {
		return fmt.Errorf("%w: load %g resolves to a non-finite gamer count", core.ErrBadModel, s.Load)
	}
	return m.Validate()
}

// Canonical returns a cache key identifying the resolved model: scenarios
// that differ only in spelling (explicit d equal to t, load in place of
// gamers, an explicitly spelled default) map to the same key. Float values
// are keyed bit-exactly, so the key never conflates two scenarios the model
// could tell apart.
func (s Scenario) Canonical() string {
	m := s.Model()
	// Resolve the two lazy defaults the model applies at evaluation time.
	if m.ClientInterval == 0 {
		m.ClientInterval = m.BurstInterval
	}
	if m.Quantile == 0 {
		m.Quantile = core.DefaultQuantile
	}
	vals := [...]float64{
		m.Gamers, m.ClientPacketBytes, m.ServerPacketBytes,
		m.BurstInterval, m.ClientInterval,
		m.UplinkAccessRate, m.DownlinkAccessRate, m.AggregateRate,
		m.Quantile, m.FixedDelay,
	}
	// Each float is its 16 zero-padded lower-case hex digits and a '|', then
	// "k" and K in decimal: the bytes fmt's "%016x|" and "k%d" would write,
	// built in one stack buffer so the key costs one allocation.
	var buf [17*len(vals) + 1 + 20]byte
	b := buf[:0]
	for _, v := range vals {
		u := math.Float64bits(v)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[u>>shift&0xf])
		}
		b = append(b, '|')
	}
	b = append(b, 'k')
	b = strconv.AppendInt(b, int64(m.ErlangOrder), 10)
	return string(b)
}

const hexDigits = "0123456789abcdef"

// JSON returns the scenario's compact JSON encoding (the daemon's wire
// form). Encoding a Scenario never fails.
func (s Scenario) JSON() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic("scenario: marshal cannot fail: " + err.Error())
	}
	return data
}

// String summarizes the scenario via the resolved model.
func (s Scenario) String() string { return s.Model().String() }
