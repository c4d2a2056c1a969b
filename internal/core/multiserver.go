package core

import (
	"fmt"

	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
)

// MultiServer extends the scenario to several game servers sharing the same
// aggregation link, the case §3.2 sketches: "if traffic stemming from more
// servers is transported over a reserved bit pipe, the N*D/G/1 queuing model
// applies ... which is very well approximated by M/G/1, if the number of
// servers is high enough". With Erlang burst work the downstream queue
// becomes M/E_K/1 (queueing.MEK1); upstream, the client population of all
// servers multiplexes into the same M/D/1 as before. The Erlang order is
// bounded by MaxErlangOrder, as for one server: the M/E_K/1 wait law is
// solved one root per branch like the D/E_K/1 one (queueing.MEK1.Solve).
type MultiServer struct {
	// PerServer describes ONE server's scenario: Gamers is the player count
	// per server, and the burst/packet/rate parameters are shared.
	PerServer Model
	// Servers is the number of game servers behind the link.
	Servers int
}

// Validate checks the per-server scenario, whose Erlang order is bounded by
// MaxErlangOrder as for a single server, and the server count.
func (ms MultiServer) Validate() error {
	if ms.Servers < 1 {
		return fmt.Errorf("%w: servers %d", ErrBadModel, ms.Servers)
	}
	return ms.PerServer.Validate()
}

// TotalGamers returns Servers * per-server gamers.
func (ms MultiServer) TotalGamers() float64 {
	return float64(ms.Servers) * ms.PerServer.Gamers
}

// Upstream returns the M/D/1 queue fed by every server's client population.
func (ms MultiServer) Upstream() (queueing.MD1, error) {
	m := ms.PerServer
	return queueing.NewMD1(ms.TotalGamers()/m.clientInterval(),
		8*m.ClientPacketBytes/m.AggregateRate)
}

// Downstream returns the M/E_K/1 queue of the aggregated burst streams:
// Poisson burst arrivals at rate S/T (the §3.2 superposition limit) with
// one server's Erlang(K) burst work as service.
func (ms MultiServer) Downstream() (queueing.MEK1, error) {
	m := ms.PerServer
	meanBurst := 8 * m.Gamers * m.ServerPacketBytes / m.AggregateRate
	beta := float64(m.ErlangOrder) / meanBurst
	return queueing.NewMEK1(float64(ms.Servers)/m.BurstInterval, m.ErlangOrder, beta)
}

// delayLaw returns the total queueing-delay law Du*W*P with the downstream
// factors taken from the M/E_K/1 queue.
func (ms MultiServer) delayLaw() (mgf.Sum, error) {
	if err := ms.Validate(); err != nil {
		return mgf.Sum{}, err
	}
	up, err := ms.Upstream()
	if err != nil {
		return mgf.Sum{}, fmt.Errorf("core: multiserver upstream: %w", err)
	}
	du, err := up.WaitMixPaper()
	if err != nil {
		return mgf.Sum{}, err
	}
	down, err := ms.Downstream()
	if err != nil {
		return mgf.Sum{}, fmt.Errorf("core: multiserver downstream: %w", err)
	}
	// The position law depends only on the burst-size parameters (K, beta).
	sol, err := down.Solve()
	if err != nil {
		return mgf.Sum{}, err
	}
	w, err := sol.WaitMix()
	if err != nil {
		return mgf.Sum{}, err
	}
	return mgf.NewSum(du, w, down.K, down.Beta)
}

// Compile stages the multi-server pipeline once, as Model.Compile does for
// one server: the compiled model's Model is the per-server scenario and its
// law the M/E_K/1 one, so RTTQuantile, MeanRTT and Decompose serve S
// servers with no code of their own.
func (ms MultiServer) Compile() (*CompiledModel, error) {
	law, err := ms.delayLaw()
	if err != nil {
		return nil, err
	}
	return &CompiledModel{Model: ms.PerServer, law: CompiledLaw{law}}, nil
}

// String summarizes the scenario.
func (ms MultiServer) String() string {
	return fmt.Sprintf("MultiServer{S=%d, per-server %s}", ms.Servers, ms.PerServer)
}
