package scenario

import (
	"math"
	"net/url"
	"testing"
)

// checkParsed holds the invariants every successfully parsed scenario must
// satisfy, whatever bytes produced it:
//
//  1. Canonical never panics and is self-consistent (same scenario, same
//     key), so a hostile query parameter cannot corrupt the daemon's cache
//     keyspace.
//  2. A scenario that validates survives the JSON round trip exactly:
//     parse → encode → parse is the identity, and the canonical key — what
//     the daemon's memo cache is keyed on — is stable across the trip.
func checkParsed(t *testing.T, sc Scenario) {
	t.Helper()
	key := sc.Canonical()
	if key == "" {
		t.Fatal("empty canonical key")
	}
	if again := sc.Canonical(); again != key {
		t.Fatalf("canonical key unstable: %q then %q", key, again)
	}
	if err := sc.Validate(); err != nil {
		return // invalid scenarios only need a stable key, not a round trip
	}
	// Validate must have rejected every non-finite float: JSON() would
	// otherwise fail on them.
	for _, f := range (&sc).fields() {
		if f.flt != nil && (math.IsNaN(*f.flt) || math.IsInf(*f.flt, 0)) {
			t.Fatalf("Validate accepted non-finite parameter %q = %g", f.name, *f.flt)
		}
	}
	back, err := FromJSON(sc.JSON())
	if err != nil {
		t.Fatalf("re-parsing own JSON %s: %v", sc.JSON(), err)
	}
	if back != sc {
		t.Fatalf("JSON round trip changed the scenario:\n%+v\n%+v", sc, back)
	}
	if back.Canonical() != key {
		t.Fatalf("JSON round trip changed the canonical key:\n%q\n%q", key, back.Canonical())
	}
}

// FuzzFromQuery fuzzes the URL-query surface of the daemon (GET /v1/rtt?...):
// arbitrary query strings must never panic, and whatever parses must have a
// stable canonical key and JSON round trip.
func FuzzFromQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"gamers=80&ps=125&t=40",
		"load=0.5",
		"load=0.5&gamers=200",
		"d=0&q=0.99999",
		"k=9&q=0.5&fixed=2.5",
		"gamers=1e308&ps=1e-308",
		"gamers=NaN",
		"fixed=Inf",
		"load=-1",
		"t=0x1p-3",
		"gamers=80&gamers=40",
		"rup=128&rdown=1024&c=5000",
		"pc=80.5&ps=124.999999999999",
		"q=0&k=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			t.Skip()
		}
		sc, err := FromQuery(values)
		if err != nil {
			return
		}
		checkParsed(t, sc)
	})
}

// FuzzFromJSON fuzzes the JSON surface of the daemon (POST bodies and batch
// items) with the same invariants.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"gamers":80,"ps":125,"t":40,"k":9}`,
		`{"load":0.5}`,
		`{"load":0.5,"gamers":200}`,
		`{"d":0,"q":0.99999}`,
		`{"q":0,"k":2}`,
		`{"fixed":2.5,"pc":80.5}`,
		`{"gamers":1e308,"ps":1e-308}`,
		`{"gamers":-80}`,
		`{"k":-1}`,
		`{"load":100}`,
		`{"gamers":80`,
		`[1,2,3]`,
		`{"gamer":80}`,
		`{"gamers":64} {"gamers":70}`,
		`{"gamers":64}xyz`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := FromJSON(data)
		if err != nil {
			return
		}
		checkParsed(t, sc)
	})
}
