package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fpsping/internal/queueing"
)

func multiServerScenario(servers int, perServerGamers float64) MultiServer {
	m := DSLDefaults()
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = 9
	m.Gamers = perServerGamers
	return MultiServer{PerServer: m, Servers: servers}
}

func TestMultiServerValidation(t *testing.T) {
	ms := multiServerScenario(0, 20)
	if err := ms.Validate(); err == nil {
		t.Error("accepted zero servers")
	}
	ms = multiServerScenario(4, 0)
	if err := ms.Validate(); err == nil {
		t.Error("accepted zero gamers per server")
	}
	ms = multiServerScenario(4, 20)
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if ms.TotalGamers() != 80 {
		t.Errorf("total gamers %v", ms.TotalGamers())
	}
}

// TestMultiServerErlangOrderLimit pins the multi-server Erlang order
// bound, the single-server MaxErlangOrder: at it the M/E_K/1 law is served
// and has a quantile, one above it the scenario is an ErrBadModel naming
// the limit, from Validate, before any root solve.
func TestMultiServerErlangOrderLimit(t *testing.T) {
	ms := multiServerScenario(4, 20)
	ms.PerServer.ErlangOrder = MaxErlangOrder
	cm, err := ms.Compile()
	if err != nil {
		t.Fatalf("K=%d: %v", MaxErlangOrder, err)
	}
	if _, err := cm.RTTQuantile(); err != nil {
		t.Errorf("K=%d: quantile: %v", MaxErlangOrder, err)
	}
	ms.PerServer.ErlangOrder = MaxErlangOrder + 1
	err = ms.Validate()
	if !errors.Is(err, ErrBadModel) || !strings.Contains(err.Error(), fmt.Sprint(MaxErlangOrder)) {
		t.Errorf("K=%d: Validate err %v, want ErrBadModel naming %d", MaxErlangOrder+1, err, MaxErlangOrder)
	}
	if _, cerr := ms.Compile(); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("K=%d: Compile err %v, want Validate's %v", MaxErlangOrder+1, cerr, err)
	}
}

func TestMultiServerRTTBehaviour(t *testing.T) {
	// Fixed total population and load, growing server count: Poisson burst
	// arrivals are burstier than one deterministic clock, so the RTT
	// quantile must exceed the single-server D/E_K/1 prediction at the same
	// aggregate load; and it grows no worse than modestly with S.
	single := DSLDefaults()
	single.ServerPacketBytes = 125
	single.BurstInterval = 0.060
	single.ErlangOrder = 9
	single = single.WithDownlinkLoad(0.5)
	qSingle, err := single.RTTQuantile()
	if err != nil {
		t.Fatal(err)
	}

	for _, servers := range []int{2, 4, 8} {
		ms := multiServerScenario(servers, single.Gamers/float64(servers))
		down, err := ms.Downstream()
		if err != nil {
			t.Fatalf("S=%d: %v", servers, err)
		}
		if math.Abs(down.Load()-0.5) > 1e-9 {
			t.Fatalf("S=%d: aggregate load %v", servers, down.Load())
		}
		cm, err := ms.Compile()
		if err != nil {
			t.Fatalf("S=%d: %v", servers, err)
		}
		q, err := cm.RTTQuantile()
		if err != nil {
			t.Fatalf("S=%d: %v", servers, err)
		}
		if q <= 0 {
			t.Fatalf("S=%d: quantile %v", servers, q)
		}
		// Note: per-server bursts are smaller (N/S gamers each), so the
		// position-delay part shrinks while the burst-wait part grows; the
		// result stays in the same regime as the single-server quantile.
		if q > 3*qSingle || q < 0.2*qSingle {
			t.Errorf("S=%d: quantile %.1fms implausible vs single %.1fms",
				servers, 1000*q, 1000*qSingle)
		}
	}
}

func TestMultiServerMoreBurstyThanDeterministicClock(t *testing.T) {
	// Same burst size law and aggregate burst rate: the M/E_K/1 burst wait
	// must stochastically dominate a D/E_K/1 with the same service law and
	// the same mean inter-arrival T/S (Poisson arrivals vs a perfect
	// clock).
	ms := multiServerScenario(4, 50) // aggregate downstream load 2/3
	down, err := ms.Downstream()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := down.Solve()
	if err != nil {
		t.Fatal(err)
	}
	wM, err := sol.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	per := ms.PerServer
	meanBurst := 8 * per.Gamers * per.ServerPacketBytes / per.AggregateRate
	dq, err := queueing.NewDEK1(per.ErlangOrder, meanBurst, per.BurstInterval/float64(ms.Servers))
	if err != nil {
		t.Fatal(err)
	}
	wD, err := dq.WaitMix()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(down.Load()-dq.Load()) > 1e-12 {
		t.Fatalf("loads differ: %v vs %v", down.Load(), dq.Load())
	}
	for _, x := range []float64{0.005, 0.02, 0.05} {
		if wM.Tail(x) < wD.Tail(x) {
			t.Errorf("x=%v: M/E_K/1 tail %v below D/E_K/1 %v", x, wM.Tail(x), wD.Tail(x))
		}
	}
	if wM.Mean() <= wD.Mean() {
		t.Errorf("M mean %v should exceed D mean %v", wM.Mean(), wD.Mean())
	}
}
