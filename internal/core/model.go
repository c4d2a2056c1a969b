// Package core implements the paper's primary contribution: a calculator for
// the quantile of the Round Trip Time ("ping time") of a First Person
// Shooter played over an access network (§3.3-§4).
//
// The scenario is Figure 2: N gamers, each on a dedicated access line (Rup
// upstream, Rdown downstream), share an aggregation link of capacity C to the
// game server. Upstream, the N near-periodic client flows multiplex into an
// M/D/1 queue (§3.1). Downstream, the server's per-tick burst (one packet per
// gamer, Erlang(K) total size) feeds a D/E_K/1 queue (§3.2), and a tagged
// packet additionally waits behind the part of its own burst in front of it.
// The three queueing delays are independent, so the total queueing MGF is the
// product Du(s)W(s)P(s) (eq. 35), inverted in closed form by the mgf package;
// serialization and any fixed propagation/processing delays are added
// deterministically.
package core

import (
	"errors"
	"fmt"
	"math"

	"fpsping/internal/mgf"
	"fpsping/internal/queueing"
	"fpsping/internal/xmath"
)

// DefaultQuantile is the RTT quantile level evaluated throughout the paper's
// §4 (in line with its references [6, 9, 19]).
const DefaultQuantile = 0.99999

// MaxErlangOrder is the largest burst-size Erlang order K a model accepts.
// It bounds the cost of one evaluation: K sets the number of D/E_K/1 roots
// and the length of the position ladder, so a cold RTT quantile costs
// O(K^2) per tail evaluation on top of a K-root solve. On a 2-vCPU VM a
// cold Decompose of the reference scenario at K = 200 takes ~0.1 ms at
// loads up to 0.6, where the burst wait is the unit atom and no root is
// solved, and 1.6-2.7 ms at loads 0.65-0.98. Every law of that scenario
// over K 2-200 and loads 0.01-0.99 in steps of 0.01 (19,701 laws) passes
// validation and is served.
const MaxErlangOrder = 200

// ErrBadModel reports invalid model parameters.
var ErrBadModel = errors.New("core: invalid model")

// ErrUnstable is re-exported for convenience: a queue in the scenario is
// overloaded.
var ErrUnstable = queueing.ErrUnstable

// Model describes one access-network gaming scenario. All rates are in
// bit/s, sizes in bytes, times in seconds.
//
// Gamers is a float64 so load sweeps can move continuously along eq. (37);
// dimensioning results round down to whole gamers.
type Model struct {
	// Gamers is N, the number of active players behind the aggregation link.
	Gamers float64
	// ClientPacketBytes is PC, the (deterministic) client update size.
	ClientPacketBytes float64
	// ServerPacketBytes is PS, the mean per-client server packet size.
	ServerPacketBytes float64
	// BurstInterval is T, the server tick / burst inter-arrival time.
	BurstInterval float64
	// ClientInterval is D, the client update period. Zero means "equal to
	// BurstInterval", the §4 assumption.
	ClientInterval float64
	// UplinkAccessRate is Rup, the per-gamer access upstream rate.
	UplinkAccessRate float64
	// DownlinkAccessRate is Rdown, the per-gamer access downstream rate.
	DownlinkAccessRate float64
	// AggregateRate is C, the gaming share of the aggregation link (both
	// directions, as in §4).
	AggregateRate float64
	// ErlangOrder is K, the burst-size Erlang order (§2.3.2).
	ErlangOrder int
	// Quantile is the RTT quantile level; zero means DefaultQuantile.
	Quantile float64
	// FixedDelay adds any propagation plus server processing time (the
	// deterministic delay of §1 beyond serialization). Often zero in §4.
	FixedDelay float64
}

// DSLDefaults returns the §4 scenario skeleton: PC = 80 B, Rup = 128 kbit/s,
// Rdown = 1024 kbit/s, C = 5 Mbit/s, 99.999% quantile. Gamers, PS, T and K
// remain to be set by the caller.
func DSLDefaults() Model {
	return Model{
		ClientPacketBytes:  80,
		UplinkAccessRate:   128_000,
		DownlinkAccessRate: 1_024_000,
		AggregateRate:      5_000_000,
		Quantile:           DefaultQuantile,
	}
}

// Validate checks all parameters (but not stability; see RTTQuantile).
func (m Model) Validate() error {
	switch {
	case !(m.Gamers > 0):
		return fmt.Errorf("%w: gamers %g", ErrBadModel, m.Gamers)
	case !(m.ClientPacketBytes > 0):
		return fmt.Errorf("%w: client packet %g bytes", ErrBadModel, m.ClientPacketBytes)
	case !(m.ServerPacketBytes > 0):
		return fmt.Errorf("%w: server packet %g bytes", ErrBadModel, m.ServerPacketBytes)
	case !(m.BurstInterval > 0):
		return fmt.Errorf("%w: burst interval %g", ErrBadModel, m.BurstInterval)
	case !(m.ClientInterval >= 0):
		return fmt.Errorf("%w: client interval %g", ErrBadModel, m.ClientInterval)
	case !(m.UplinkAccessRate > 0) || !(m.DownlinkAccessRate > 0) || !(m.AggregateRate > 0):
		return fmt.Errorf("%w: rates up=%g down=%g agg=%g", ErrBadModel,
			m.UplinkAccessRate, m.DownlinkAccessRate, m.AggregateRate)
	case m.ErlangOrder < 2:
		return fmt.Errorf("%w: Erlang order %d (the uniform position law needs K >= 2)", ErrBadModel, m.ErlangOrder)
	case m.ErlangOrder > MaxErlangOrder:
		return fmt.Errorf("%w: Erlang order %d above %d", ErrBadModel, m.ErlangOrder, MaxErlangOrder)
	case !(m.Quantile >= 0 && m.Quantile < 1):
		return fmt.Errorf("%w: quantile %g", ErrBadModel, m.Quantile)
	case !(m.FixedDelay >= 0):
		return fmt.Errorf("%w: fixed delay %g", ErrBadModel, m.FixedDelay)
	}
	return nil
}

// clientInterval resolves the D = T default.
func (m Model) clientInterval() float64 {
	if m.ClientInterval > 0 {
		return m.ClientInterval
	}
	return m.BurstInterval
}

// quantile resolves the default level.
func (m Model) quantile() float64 {
	if m.Quantile > 0 {
		return m.Quantile
	}
	return DefaultQuantile
}

// QuantileLevel returns the effective quantile level: Quantile when set,
// DefaultQuantile otherwise.
func (m Model) QuantileLevel() float64 { return m.quantile() }

// DownlinkLoad returns eq. (37): rho_d = 8*N*PS/(T*C).
func (m Model) DownlinkLoad() float64 {
	return 8 * m.Gamers * m.ServerPacketBytes / (m.BurstInterval * m.AggregateRate)
}

// UplinkLoad returns the analogous upstream load 8*N*PC/(D*C).
func (m Model) UplinkLoad() float64 {
	return 8 * m.Gamers * m.ClientPacketBytes / (m.clientInterval() * m.AggregateRate)
}

// SerializationDelay returns the deterministic transmission times on the
// four hops: client access up, aggregation up, aggregation down, access down.
func (m Model) SerializationDelay() float64 {
	up := 8 * m.ClientPacketBytes / m.UplinkAccessRate
	upAgg := 8 * m.ClientPacketBytes / m.AggregateRate
	downAgg := 8 * m.ServerPacketBytes / m.AggregateRate
	down := 8 * m.ServerPacketBytes / m.DownlinkAccessRate
	return up + upAgg + downAgg + down
}

// FixedPart returns all deterministic delay: serialization plus FixedDelay.
func (m Model) FixedPart() float64 { return m.SerializationDelay() + m.FixedDelay }

// Upstream returns the §3.1 M/D/1 queue: Poisson(N/D) arrivals of
// deterministic service 8*PC/C.
func (m Model) Upstream() (queueing.MD1, error) {
	return queueing.NewMD1(m.Gamers/m.clientInterval(), 8*m.ClientPacketBytes/m.AggregateRate)
}

// Downstream returns the §3.2 D/E_K/1 queue: bursts of mean work
// 8*N*PS/C every T.
func (m Model) Downstream() (queueing.DEK1, error) {
	return queueing.NewDEK1(m.ErlangOrder, 8*m.Gamers*m.ServerPacketBytes/m.AggregateRate, m.BurstInterval)
}

// delayLaw builds the queueing-delay law of eq. (35): the sum of Du
// (upstream M/D/1, eq. 14), W (D/E_K/1 burst wait, eq. 18) and P (in-burst
// position, eq. 34).
func (m Model) delayLaw() (mgf.Sum, error) {
	if err := m.Validate(); err != nil {
		return mgf.Sum{}, err
	}
	up, err := m.Upstream()
	if err != nil {
		return mgf.Sum{}, fmt.Errorf("core: upstream: %w", err)
	}
	du, err := up.WaitMixPaper()
	if err != nil {
		return mgf.Sum{}, err
	}
	down, err := m.Downstream()
	if err != nil {
		return mgf.Sum{}, fmt.Errorf("core: downstream: %w", err)
	}
	w, err := down.WaitMix()
	if err != nil {
		return mgf.Sum{}, err
	}
	return mgf.NewSum(du, w, down.K, down.Beta())
}

// RTTQuantile returns the RTT quantile (seconds): the queueing-delay quantile
// plus the deterministic part. This is the paper's headline metric. One-shot
// form of Compile().RTTQuantile(); a caller that also needs the mean or the
// decomposition compiles once and asks the CompiledModel for each.
func (m Model) RTTQuantile() (float64, error) {
	cm, err := m.Compile()
	if err != nil {
		return 0, err
	}
	return cm.RTTQuantile()
}

// MeanRTT returns the mean round trip time.
func (m Model) MeanRTT() (float64, error) {
	cm, err := m.Compile()
	if err != nil {
		return 0, err
	}
	return cm.MeanRTT(), nil
}

// Components decomposes the RTT quantile into its constituents, each
// reported at the model's quantile level in isolation. Because the quantile
// of a sum is not the sum of quantiles, Total (the true combined quantile)
// is generally smaller than the sum of the parts; §3.3 discusses exactly
// this approximation.
type Components struct {
	Serialization float64 // deterministic transmission times
	Fixed         float64 // propagation + processing
	Upstream      float64 // M/D/1 waiting quantile
	BurstWait     float64 // D/E_K/1 burst waiting quantile
	Position      float64 // in-burst position delay quantile
	Total         float64 // true RTT quantile (not the sum of the above)
}

// Decompose evaluates each delay component's quantile in isolation plus the
// true total: a one-shot Compile().Decompose(), so the queues are built and
// the factors combined exactly once.
func (m Model) Decompose() (Components, error) {
	cm, err := m.Compile()
	if err != nil {
		return Components{}, err
	}
	return cm.Decompose()
}

// RTTQuantileDominantPole computes the quantile from only the dominant pole
// of the product MGF: "a further approximation is to neglect all terms but
// the dominant pole in eq. (35)". The residue is computed stably as the
// product of the dominant factor's residue with the other factors evaluated
// at the pole (no partial-fraction expansion needed). Since
// alpha_1 = beta(1-zeta_1) < beta always, the dominant pole is the simple
// pole min(gamma, alpha_1).
func (m Model) RTTQuantileDominantPole() (float64, error) {
	law, err := m.delayLaw()
	if err != nil {
		return 0, err
	}
	du, w, p := law.Factors()
	type simplePole struct {
		rate    float64
		residue complex128
		others  [2]mgf.Mix
	}
	var candidates []simplePole
	if g, ok := du.DominantPole(); ok {
		candidates = append(candidates, simplePole{
			rate:    real(g),
			residue: du.Terms[0].Coef[0],
			others:  [2]mgf.Mix{w, p},
		})
	}
	if a1, ok := w.DominantPole(); ok {
		var res complex128
		for _, t := range w.Terms {
			// Conjugate-pair poles share the real part only when complex;
			// the dominant D/E_K/1 pole alpha_1 is real and unique.
			if t.Pole == a1 {
				res = t.Coef[0]
			}
		}
		candidates = append(candidates, simplePole{
			rate:    real(a1),
			residue: res,
			others:  [2]mgf.Mix{du, p},
		})
	}
	if len(candidates) == 0 {
		// No stochastic part at all: the quantile is the fixed delay.
		return m.FixedPart(), nil
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.rate < best.rate {
			best = c
		}
	}
	// Residue of the product at the dominant simple pole d:
	// c = res_d * F2(d) * F3(d); tail ~ Re(c) e^{-d x}.
	c := best.residue * best.others[0].Eval(best.rate) * best.others[1].Eval(best.rate)
	amp := real(c)
	target := 1 - m.quantile()
	if !(amp > target) {
		return m.FixedPart(), nil
	}
	return math.Log(amp/target)/best.rate + m.FixedPart(), nil
}

// RTTQuantileChernoff computes the quantile from the Chernoff bound of
// eq. (36): P(D > d) <= inf_{s>0} e^{-sd} Du(s)W(s)P(s), inverted for the
// target level. The bound is evaluated on real s strictly below the smallest
// pole real part, where all three MGFs are finite.
func (m Model) RTTQuantileChernoff() (float64, error) {
	law, err := m.delayLaw()
	if err != nil {
		return 0, err
	}
	du, w, p := law.Factors()
	sMax := math.Inf(1)
	for _, mix := range []mgf.Mix{du, w, p} {
		if pole, ok := mix.DominantPole(); ok && real(pole) < sMax {
			sMax = real(pole)
		}
	}
	if math.IsInf(sMax, 1) {
		return m.FixedPart(), nil
	}
	logBound := func(d float64) float64 {
		f := func(s float64) float64 {
			v := real(du.Eval(s) * w.Eval(s) * p.Eval(s))
			if v <= 0 {
				return math.Inf(1)
			}
			return -s*d + math.Log(v)
		}
		_, fx := xmath.MinimizeGolden(f, 0, sMax*(1-1e-9), 1e-12*sMax)
		return fx
	}
	target := math.Log(1 - m.quantile())
	// The bound decreases in d; bracket and bisect.
	lo, hi := 0.0, math.Max(m.BurstInterval, 1e-4)
	for i := 0; i < 200 && logBound(hi) > target; i++ {
		lo = hi
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := lo + (hi-lo)/2
		if logBound(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9*(1+hi) {
			break
		}
	}
	return (lo+hi)/2 + m.FixedPart(), nil
}

// RTTQuantileSumOfQuantiles applies the last remark of §3.3: approximate the
// quantile of the sum by the sum of the component quantiles. It is an upper
// bound in practice and part of the ablation study.
func (m Model) RTTQuantileSumOfQuantiles() (float64, error) {
	c, err := m.Decompose()
	if err != nil {
		return 0, err
	}
	return c.Serialization + c.Fixed + c.Upstream + c.BurstWait + c.Position, nil
}

// WithDownlinkLoad returns a copy with Gamers set so that DownlinkLoad()
// equals rho (inverting eq. 37): N = rho*T*C/(8*PS).
func (m Model) WithDownlinkLoad(rho float64) Model {
	out := m
	out.Gamers = rho * m.BurstInterval * m.AggregateRate / (8 * m.ServerPacketBytes)
	return out
}

// String summarizes the scenario.
func (m Model) String() string {
	return fmt.Sprintf("Model{N=%.4g PC=%gB PS=%gB T=%gms D=%gms Rup=%gk Rdown=%gk C=%gk K=%d q=%g}",
		m.Gamers, m.ClientPacketBytes, m.ServerPacketBytes,
		1000*m.BurstInterval, 1000*m.clientInterval(),
		m.UplinkAccessRate/1000, m.DownlinkAccessRate/1000, m.AggregateRate/1000,
		m.ErlangOrder, m.quantile())
}
