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
