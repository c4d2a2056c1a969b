package service

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"

	"fpsping/internal/scenario"
)

// TestDimensionAgreesWithRTT checks the relations between /v1/dimension and
// /v1/rtt over a seeded scenario sample, through one in-process server: the
// reported rtt_at_max_ms is /v1/rtt's quantile_ms at max_downlink_load,
// bit for bit, and within bound_ms; and /v1/rtt 1e-6 above
// max_downlink_load exceeds the bound, unless the answer is the stability
// ceiling. The sample covers K 2-12, PS 60-200 B (below PC = 80 B the
// uplink saturates first), T 30-60 ms, the four quantile levels and bounds
// of 30-150 ms, plus one bound that never binds.
func TestDimensionAgreesWithRTT(t *testing.T) {
	_, ts := newTestServer(t, 2)
	rng := rand.New(rand.NewPCG(8, 18))
	type question struct {
		sc      scenario.Scenario
		boundMs float64
	}
	var qs []question
	for i := 0; i < 10; i++ {
		sc := scenario.Default()
		sc.ErlangOrder = 2 + rng.IntN(11)
		sc.ServerPacketBytes = 60 + 140*rng.Float64()
		sc.BurstIntervalMs = 30 + 30*rng.Float64()
		sc.Quantile = []float64{0.99, 0.999, 0.9999, 0.99999}[rng.IntN(4)]
		sc.FixedMs = 2 * rng.Float64()
		qs = append(qs, question{sc, 30 + 120*rng.Float64()})
	}
	qs = append(qs, question{scenario.Default(), 1e12}) // ~1e7 ms at the ceiling

	rttAt := func(sc scenario.Scenario, load float64) (RTTResult, int) {
		sc.Load = load
		resp, body := post(t, ts.URL+"/v1/rtt", string(sc.JSON()))
		var out RTTResult
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp.StatusCode
	}
	ceilings := 0
	for _, q := range qs {
		name := fmt.Sprintf("K=%d PS=%.1f T=%.2f q=%g fixed=%.3f bound=%.2fms",
			q.sc.ErlangOrder, q.sc.ServerPacketBytes, q.sc.BurstIntervalMs, q.sc.Quantile, q.sc.FixedMs, q.boundMs)
		body := fmt.Sprintf(`{"scenario":%s,"bound_ms":%v}`, q.sc.JSON(), q.boundMs)
		resp, data := post(t, ts.URL+"/v1/dimension", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: dimension status %d: %s", name, resp.StatusCode, data)
		}
		var dim DimensionResult
		if err := json.Unmarshal(data, &dim); err != nil {
			t.Fatal(err)
		}
		at, status := rttAt(q.sc, dim.MaxDownlinkLoad)
		if status != http.StatusOK {
			t.Fatalf("%s: rtt at max_downlink_load %v: status %d", name, dim.MaxDownlinkLoad, status)
		}
		if math.Float64bits(at.QuantileMs) != math.Float64bits(dim.RTTAtMaxMs) {
			t.Errorf("%s: rtt_at_max_ms %v, /v1/rtt at max_downlink_load %v", name, dim.RTTAtMaxMs, at.QuantileMs)
		}
		if !(dim.RTTAtMaxMs <= q.boundMs) {
			t.Errorf("%s: rtt_at_max_ms %v over the bound", name, dim.RTTAtMaxMs)
		}
		m := q.sc.Model()
		d := m.ClientInterval
		if d == 0 {
			d = m.BurstInterval
		}
		if top := min(1, (m.ServerPacketBytes/m.ClientPacketBytes)*(d/m.BurstInterval)); dim.MaxDownlinkLoad == top-1e-6 {
			ceilings++
			continue
		}
		above, status := rttAt(q.sc, dim.MaxDownlinkLoad+1e-6)
		if status != http.StatusOK {
			t.Fatalf("%s: rtt 1e-6 above max_downlink_load %v: status %d", name, dim.MaxDownlinkLoad, status)
		}
		if !(above.QuantileMs > q.boundMs) {
			t.Errorf("%s: /v1/rtt 1e-6 above max_downlink_load %v is %v ms, within the bound",
				name, dim.MaxDownlinkLoad, above.QuantileMs)
		}
	}
	if ceilings != 1 {
		t.Errorf("%d answers at the stability ceiling, want exactly the never-binding bound's", ceilings)
	}
}

// TestSweepAgreesWithRTT checks the relations between /v1/sweep and /v1/rtt
// over a seeded scenario sample: each sweep point's rtt_ms is /v1/rtt's
// quantile_ms at the same load, bit for bit, and each sweep is
// non-decreasing in load. The sweeps and the single requests go to two
// in-process servers, so neither answer can be the other's cached "pt|"
// point. The sample covers K 2-30, PS 60-200 B, T 30-60 ms and the four
// quantile levels, over grids that may run into the stability limit.
func TestSweepAgreesWithRTT(t *testing.T) {
	_, sweeps := newTestServer(t, 2)
	_, singles := newTestServer(t, 2)
	rng := rand.New(rand.NewPCG(8, 20))
	points := 0
	for i := 0; i < 8; i++ {
		sc := scenario.Default()
		sc.ErlangOrder = 2 + rng.IntN(29)
		sc.ServerPacketBytes = 60 + 140*rng.Float64()
		sc.BurstIntervalMs = 30 + 30*rng.Float64()
		sc.Quantile = []float64{0.99, 0.999, 0.9999, 0.99999}[rng.IntN(4)]
		from, step := 0.02+0.1*rng.Float64(), 0.04+0.06*rng.Float64()
		name := fmt.Sprintf("K=%d PS=%.1f T=%.2f q=%g from=%.3f step=%.3f",
			sc.ErlangOrder, sc.ServerPacketBytes, sc.BurstIntervalMs, sc.Quantile, from, step)
		body := fmt.Sprintf(`{"scenario":%s,"from":%v,"to":0.95,"step":%v}`, sc.JSON(), from, step)
		resp, data := post(t, sweeps.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sweep status %d: %s", name, resp.StatusCode, data)
		}
		var sw SweepResult
		if err := json.Unmarshal(data, &sw); err != nil {
			t.Fatal(err)
		}
		for j, p := range sw.Points {
			if j > 0 && !(p.RTTMs >= sw.Points[j-1].RTTMs) {
				t.Errorf("%s: rtt_ms %v at load %v below %v at load %v",
					name, p.RTTMs, p.Load, sw.Points[j-1].RTTMs, sw.Points[j-1].Load)
			}
			at := sc
			at.Load = p.Load
			resp, data := post(t, singles.URL+"/v1/rtt", string(at.JSON()))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: rtt at load %v: status %d: %s", name, p.Load, resp.StatusCode, data)
			}
			var rtt RTTResult
			if err := json.Unmarshal(data, &rtt); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rtt.QuantileMs) != math.Float64bits(p.RTTMs) {
				t.Errorf("%s: sweep rtt_ms %v at load %v, /v1/rtt quantile_ms %v",
					name, p.RTTMs, p.Load, rtt.QuantileMs)
			}
			points++
		}
	}
	if points < 50 {
		t.Errorf("only %d sweep points compared", points)
	}
}
