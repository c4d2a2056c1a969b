package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"fpsping/internal/core"
	"fpsping/internal/scenario"
)

// fuzzScenario maps raw fuzz inputs onto a scenario inside the vocabulary:
// K in [2, core.MaxErlangOrder], PS in [20, 1500) bytes, T in [5, 200) ms,
// q in [0.99, 0.999999] and the downlink load in [1e-6, top - 1e-6], top =
// min(1, PS/PC) being the stability ceiling.
func fuzzScenario(k uint16, ps, t, load, q float64) scenario.Scenario {
	sc := scenario.Default()
	sc.ErlangOrder = 2 + int(k)%(core.MaxErlangOrder-1)
	sc.ServerPacketBytes = 20 + 1480*fuzzFrac(ps)
	sc.BurstIntervalMs = 5 + 195*fuzzFrac(t)
	top := math.Min(1, sc.ServerPacketBytes/sc.ClientPacketBytes)
	sc.Load = 1e-6 + (top-2e-6)*fuzzFrac(load)
	sc.Quantile = 0.99 + (0.999999-0.99)*fuzzFrac(q)
	return sc
}

// fuzzFrac maps a raw fuzz float onto [0, 1).
func fuzzFrac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(v - math.Trunc(v))
}

// fuzzQuery renders fuzzScenario's scenario as a /v1/rtt query.
func fuzzQuery(k uint16, ps, t, load, q float64) string {
	sc := fuzzScenario(k, ps, t, load, q)
	return fmt.Sprintf("/v1/rtt?k=%d&ps=%v&t=%v&load=%v&q=%v",
		sc.ErlangOrder, sc.ServerPacketBytes, sc.BurstIntervalMs, sc.Load, sc.Quantile)
}

// serve sends one request to h in process and returns its status and body.
func serve(h http.Handler, method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// fuzzSeeds adds FuzzRTT's seeds with a second level: the default scenario
// at mid load; the PS=75 uplink corner, where the uplink load is 1-1e-5 and
// the upstream pole all but vanishes; K=14 at rho=0.1, where W's 14 poles
// crowd beta; the Erlang-order cap at high load; the lowest load.
func fuzzSeeds(f *testing.F) {
	f.Add(uint16(7), 0.0709, 0.1795, 0.5, 0.5, 0.9)
	f.Add(uint16(7), 55.0/1480, 0.1795, 0.93749/(75.0/80), 0.5, 0.01)
	f.Add(uint16(12), 0.0709, 0.1795, 0.1, 0.9, 0.2)
	f.Add(uint16(core.MaxErlangOrder-2), 0.0709, 0.1795, 0.95, 0.99, 0.0)
	f.Add(uint16(0), 0.9, 0.01, 0.0, 0.0, 0.999)
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
		code, body := serve(h, http.MethodGet, query, nil)
		switch code {
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
				t.Errorf("%s: status %d without an error envelope: %s", query, code, body)
			}
		default:
			t.Errorf("%s: status %d: %s", query, code, body)
		}
	})
}

// FuzzQuantileMonotoneInLevel checks, through an in-process Server, that
// the RTT quantile and each of its components do not decrease in the level:
// the same scenario at two levels answers 200 at both or at neither, and
// the higher level's numbers are at least the lower level's. Levels whose
// tails 1-p differ by less than 1% are skipped: their quantiles are closer
// than the inversion's tolerance, where the order is not defined.
func FuzzQuantileMonotoneInLevel(f *testing.F) {
	fuzzSeeds(f)
	h := NewServer("127.0.0.1:0", NewEngine(1, 64)).Handler()
	f.Fuzz(func(t *testing.T, k uint16, ps, tMs, load, q1, q2 float64) {
		lo, hi := fuzzScenario(k, ps, tMs, load, q1), fuzzScenario(k, ps, tMs, load, q2)
		if lo.Quantile > hi.Quantile {
			lo, hi = hi, lo
		}
		if (1-hi.Quantile)/(1-lo.Quantile) > 0.99 {
			t.Skip("levels too close to order")
		}
		var res [2]RTTResult
		var codes [2]int
		for i, sc := range []scenario.Scenario{lo, hi} {
			code, body := serve(h, http.MethodPost, "/v1/rtt", sc.JSON())
			codes[i] = code
			if code == http.StatusOK {
				if err := json.Unmarshal(body, &res[i]); err != nil {
					t.Fatalf("q=%g: undecodable 200 body %s: %v", sc.Quantile, body, err)
				}
			}
		}
		if (codes[0] == http.StatusOK) != (codes[1] == http.StatusOK) {
			t.Fatalf("%s: status %d at q=%g but %d at q=%g", lo.Canonical(), codes[0], lo.Quantile, codes[1], hi.Quantile)
		}
		if codes[0] != http.StatusOK {
			return
		}
		a, b := res[0], res[1]
		for name, v := range map[string][2]float64{
			"quantile_ms": {a.QuantileMs, b.QuantileMs},
			"upstream":    {a.Components.Upstream, b.Components.Upstream},
			"burst_wait":  {a.Components.BurstWait, b.Components.BurstWait},
			"position":    {a.Components.Position, b.Components.Position},
		} {
			if !(v[1] >= v[0]) {
				t.Errorf("%s: %s %v at q=%g above %v at q=%g", lo.Canonical(), name, v[0], lo.Quantile, v[1], hi.Quantile)
			}
		}
	})
}

// FuzzBatchItemEqualsSingle checks, through in-process Servers, that each
// item of a /v1/rtt:batch answer is the single /v1/rtt answer to its
// scenario: the result bytes of a 200, or the error message of a rejected
// request. The batch (the scenario at two levels) and the single requests
// go to separate servers, so both sides compute cold.
func FuzzBatchItemEqualsSingle(f *testing.F) {
	fuzzSeeds(f)
	batchH := NewServer("127.0.0.1:0", NewEngine(1, 64)).Handler()
	singleH := NewServer("127.0.0.1:0", NewEngine(1, 64)).Handler()
	f.Fuzz(func(t *testing.T, k uint16, ps, tMs, load, q1, q2 float64) {
		scs := []scenario.Scenario{fuzzScenario(k, ps, tMs, load, q1), fuzzScenario(k, ps, tMs, load, q2)}
		body := fmt.Sprintf(`{"scenarios":[%s,%s]}`, scs[0].JSON(), scs[1].JSON())
		code, data := serve(batchH, http.MethodPost, "/v1/rtt:batch", []byte(body))
		if code != http.StatusOK {
			t.Fatalf("batch status %d: %s", code, data)
		}
		var batch struct {
			Results []struct {
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(data, &batch); err != nil || len(batch.Results) != len(scs) {
			t.Fatalf("batch body %s: %v", data, err)
		}
		for i, sc := range scs {
			item := batch.Results[i]
			code, single := serve(singleH, http.MethodPost, "/v1/rtt", sc.JSON())
			if code == http.StatusOK {
				if got := bytes.TrimSuffix(single, []byte("\n")); !bytes.Equal(item.Result, got) {
					t.Errorf("item %d: batch result\n%s\nsingle answer\n%s", i, item.Result, got)
				}
				continue
			}
			var e apiError
			if err := json.Unmarshal(single, &e); err != nil || item.Result != nil || item.Error != e.Error {
				t.Errorf("item %d: single status %d %s, batch item %+v", i, code, single, item)
			}
		}
	})
}
