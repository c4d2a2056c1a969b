package scenario_test

import (
	"testing"

	"fpsping/internal/scenario"
)

// BenchmarkCanonical times one cache key, the work every daemon request
// and every sweep or dimensioning probe does before its memo lookup.
func BenchmarkCanonical(b *testing.B) {
	s := scenario.Default()
	s.Load = 0.5
	b.ReportAllocs()
	for b.Loop() {
		_ = s.Canonical()
	}
}

// BenchmarkFromJSON times decoding one /v1/rtt body in the daemon's strict
// mode.
func BenchmarkFromJSON(b *testing.B) {
	body := []byte(`{"gamers":60,"pc":80,"ps":125,"t":40,"rup":128,"rdown":1024,"c":5000,"k":9,"q":0.99999,"fixed":2}`)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := scenario.FromJSON(body); err != nil {
			b.Fatal(err)
		}
	}
}
