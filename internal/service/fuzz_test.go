package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"fpsping/internal/core"
)

// fuzzQuery maps raw fuzz inputs onto a /v1/rtt query inside the scenario
// vocabulary: K in [2, core.MaxErlangOrder], PS in [20, 1500) bytes, T in
// [5, 200) ms, q in [0.99, 0.999999] and the downlink load in
// [1e-6, top - 1e-6], top = min(1, PS/PC) being the stability ceiling.
func fuzzQuery(k uint16, ps, t, load, q float64) string {
	frac := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0.5
		}
		return math.Abs(v - math.Trunc(v))
	}
	order := 2 + int(k)%(core.MaxErlangOrder-1)
	psB := 20 + 1480*frac(ps)
	tMs := 5 + 195*frac(t)
	top := math.Min(1, psB/80)
	rho := 1e-6 + (top-2e-6)*frac(load)
	level := 0.99 + (0.999999-0.99)*frac(q)
	return fmt.Sprintf("/v1/rtt?k=%d&ps=%v&t=%v&load=%v&q=%v", order, psB, tMs, rho, level)
}

// FuzzRTT drives /v1/rtt through an in-process Server over the scenario
// vocabulary. Every answer is a 200 whose numbers are all finite, or a 400
// or 422 with a JSON error envelope: never a NaN, a 500 or a panic.
func FuzzRTT(f *testing.F) {
	// Seeds: the default scenario at mid load; the PS=75 uplink corner,
	// where the uplink load is 1-1e-5 and the upstream pole all but
	// vanishes; K=14 at rho=0.1, where W's 14 poles crowd beta; the
	// Erlang-order cap at high load; the lowest load.
	f.Add(uint16(7), 0.0709, 0.1795, 0.5, 0.5)
	f.Add(uint16(7), 55.0/1480, 0.1795, 0.93749/(75.0/80), 0.5)
	f.Add(uint16(12), 0.0709, 0.1795, 0.1, 0.9)
	f.Add(uint16(core.MaxErlangOrder-2), 0.0709, 0.1795, 0.95, 0.99)
	f.Add(uint16(0), 0.9, 0.01, 0.0, 0.0)
	h := NewServer("127.0.0.1:0", NewEngine(1, 64)).Handler()
	f.Fuzz(func(t *testing.T, k uint16, ps, tMs, load, q float64) {
		query := fuzzQuery(k, ps, tMs, load, q)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, query, nil))
		body := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			var res RTTResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%s: undecodable 200 body %s: %v", query, body, err)
			}
			c := res.Components
			for name, v := range map[string]float64{
				"quantile_ms": res.QuantileMs, "mean_ms": res.MeanMs,
				"upstream": c.Upstream, "burst_wait": c.BurstWait, "position": c.Position,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s: %s = %v", query, name, v)
				}
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("%s: status %d without an error envelope: %s", query, rec.Code, body)
			}
		default:
			t.Errorf("%s: status %d: %s", query, rec.Code, body)
		}
	})
}
