package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"fpsping/internal/scenario"
)

// Request streams: every input the benchmark sends is a pure function of
// (seed, workload, stream, index).
const (
	streamPool    = 1
	streamWarmup  = 2
	streamNominal = 3
	streamRung    = 16 // + rung index
	scheduleBit   = 1 << 40
)

var quantiles = []float64{0.99, 0.999, 0.9999, 0.99999}

// Request is one generated HTTP request plus the inputs it carries, so the
// traced replay can feed the same values to in-process entry points.
type Request struct {
	Kind    string // rtt, batch, sweep, dimension, models
	Method  string
	Path    string
	Body    []byte
	Scs     []scenario.Scenario
	BoundMs float64
	From    float64
	To      float64
	Step    float64
}

// Gen generates a workload's requests and arrival schedules from a seed.
type Gen struct {
	wl   Workload
	seed uint64
	wlID uint64

	rttPool   []scenario.Scenario
	sweepPool []Request
	dimPool   []Request
	zRTT      zipf
	zSweep    zipf
	zDim      zipf
	kinds     []string
	kindCDF   []float64
}

func newGen(wl Workload, seed uint64) *Gen {
	h := fnv.New64a()
	h.Write([]byte(wl.Name))
	g := &Gen{wl: wl, seed: seed, wlID: h.Sum64()}
	m := wl.Mix
	acc := 0.0
	for _, k := range []struct {
		name string
		w    float64
	}{{"rtt", m.RTT}, {"batch", m.Batch}, {"sweep", m.Sweep}, {"dimension", m.Dimension}, {"models", m.Models}} {
		if k.w > 0 {
			acc += k.w
			g.kinds = append(g.kinds, k.name)
			g.kindCDF = append(g.kindCDF, acc)
		}
	}
	for i := range g.kindCDF {
		g.kindCDF[i] /= acc
	}
	p := wl.Pool
	for i := 0; i < p.RTT; i++ {
		g.rttPool = append(g.rttPool, pooledScenario(g.rng(streamPool, i)))
	}
	for i := 0; i < p.Sweep; i++ {
		g.sweepPool = append(g.sweepPool, sweepRequest(pooledScenario(g.rng(streamPool, p.RTT+i))))
	}
	for i := 0; i < p.Dimension; i++ {
		r := g.rng(streamPool, p.RTT+p.Sweep+i)
		g.dimPool = append(g.dimPool, dimensionRequest(pooledScenario(r), 40+30*r.Float64()))
	}
	g.zRTT, g.zSweep, g.zDim = newZipf(p.RTT, p.ZipfS), newZipf(p.Sweep, p.ZipfS), newZipf(p.Dimension, p.ZipfS)
	return g
}

// rng returns the generator for one (stream, index) cell.
func (g *Gen) rng(stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed^g.wlID*0x9e3779b97f4a7c15, stream<<32^uint64(i)))
}

// kind maps x in [0, 1) to an endpoint by the workload's mix.
func (g *Gen) kind(x float64) string {
	return g.kinds[min(sort.SearchFloat64s(g.kindCDF, x), len(g.kinds)-1)]
}

// pooled reports whether the workload draws from a fixed pool.
func (g *Gen) pooled() bool { return len(g.rttPool)+len(g.sweepPool)+len(g.dimPool) > 0 }

// Request returns request i of a stream.
func (g *Gen) Request(stream uint64, i int) Request {
	if g.pooled() {
		r := g.rng(stream, i)
		switch g.kind(r.Float64()) {
		case "rtt":
			return rttRequest(g.rttPool[g.zRTT.draw(r)])
		case "batch":
			scs := make([]scenario.Scenario, g.wl.Pool.BatchSize)
			for j := range scs {
				scs[j] = g.rttPool[g.zRTT.draw(r)]
			}
			return batchRequest(scs)
		case "sweep":
			return g.sweepPool[g.zSweep.draw(r)]
		case "dimension":
			return g.dimPool[g.zDim.draw(r)]
		default:
			return Request{Kind: "models", Method: "GET", Path: "/v1/models"}
		}
	}
	// The cold workloads spread their endpoints and cost factors evenly
	// over the run instead of drawing them: every seed carries the same mix
	// of endpoints, Erlang orders, quantile levels and loads, at values no
	// other seed repeats. u offsets the sequences per seed and stream.
	u := g.rng(stream, -1)
	switch g.kind(spread(0.5, i, golden)) {
	case "rtt":
		return rttRequest(coldScenario(u, i))
	case "sweep":
		return sweepRequest(walkScenario(u, i))
	default:
		return dimensionRequest(walkScenario(u, i), 30+40*spread(u.Float64(), i, math.Pi))
	}
}

// Warmup returns the workload's warmup pass: every pool item once for the
// Zipf workloads, a short stream of its own for the cold ones.
func (g *Gen) Warmup() []Request {
	var out []Request
	if !g.pooled() {
		for i := 0; i < 64; i++ {
			out = append(out, g.Request(streamWarmup, i))
		}
		return out
	}
	for _, sc := range g.rttPool {
		out = append(out, rttRequest(sc))
	}
	out = append(out, g.sweepPool...)
	out = append(out, g.dimPool...)
	if g.wl.Mix.Models > 0 {
		out = append(out, Request{Kind: "models", Method: "GET", Path: "/v1/models"})
	}
	return out
}

// Schedule returns the Poisson arrival offsets of a stream at rate per
// second within d: offset i is a pure function of (seed, workload, stream,
// j <= i).
func (g *Gen) Schedule(stream uint64, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for i := 0; ; i++ {
		t += -math.Log(1-g.rng(stream|scheduleBit, i).Float64()) / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// pooledScenario draws a cheap scenario for the Zipf pools (K 2-9).
func pooledScenario(r *rand.Rand) scenario.Scenario {
	sc := baseScenario(r)
	sc.ErlangOrder = 2 + r.IntN(8)
	sc.Load = 0.1 + 0.75*r.Float64()
	return sc
}

// coldOrders is the cycle of Erlang orders cold-rtt walks through: every K
// in 2-30 once, then K 16-30 a second time. The heavy orders set the tail,
// and at twice the weight they keep the latency tail well above the
// millisecond-scale pauses of a shared host.
var coldOrders = func() []int {
	var ks []int
	for k := 2; k <= 30; k++ {
		ks = append(ks, k)
	}
	for k := 16; k <= 30; k++ {
		ks = append(ks, k)
	}
	return ks
}()

// coldScenario is request i of cold-rtt: K cycles through coldOrders and
// the quantile level through its four values, while load, PS and T run
// low-discrepancy sequences offset by the seed.
func coldScenario(u *rand.Rand, i int) scenario.Scenario {
	sc := spreadScenario(u, i)
	sc.ErlangOrder = coldOrders[i%len(coldOrders)]
	sc.Quantile = quantiles[(i/len(coldOrders))%len(quantiles)]
	sc.Load = 0.1 + 0.8*spread(u.Float64(), i, golden)
	return sc
}

// walkScenario is the scenario base of cold-walk request i: K cycles
// through 2-11 and the quantile level through its four values.
func walkScenario(u *rand.Rand, i int) scenario.Scenario {
	sc := spreadScenario(u, i)
	sc.ErlangOrder = 2 + (i/2)%10
	sc.Quantile = quantiles[(i/20)%len(quantiles)]
	sc.FixedMs = 2 * spread(u.Float64(), i, golden)
	return sc
}

// spreadScenario is baseScenario with PS and T spread evenly instead of
// drawn.
func spreadScenario(u *rand.Rand, i int) scenario.Scenario {
	sc := scenario.Default()
	sc.ServerPacketBytes = 100 + 100*spread(u.Float64(), i, math.Sqrt2)
	sc.BurstIntervalMs = 30 + 30*spread(u.Float64(), i, math.Sqrt(3))
	return sc
}

// golden is the golden ratio, the step that spreads a sequence most evenly.
const golden = 1.618033988749895

// spread returns element i of the additive-recurrence sequence
// frac(u0 + i*alpha) in [0, 1): for irrational alpha, evenly spread over
// any window of indices.
func spread(u0 float64, i int, alpha float64) float64 {
	_, f := math.Modf(u0 + float64(i)*alpha)
	return f
}

func baseScenario(r *rand.Rand) scenario.Scenario {
	sc := scenario.Default()
	sc.ServerPacketBytes = 100 + 100*r.Float64()
	sc.BurstIntervalMs = 30 + 30*r.Float64()
	sc.Quantile = quantiles[r.IntN(len(quantiles))]
	return sc
}

func rttRequest(sc scenario.Scenario) Request {
	return Request{Kind: "rtt", Method: "POST", Path: "/v1/rtt", Body: sc.JSON(), Scs: []scenario.Scenario{sc}}
}

func batchRequest(scs []scenario.Scenario) Request {
	raw := make([]json.RawMessage, len(scs))
	for i, sc := range scs {
		raw[i] = sc.JSON()
	}
	body, _ := json.Marshal(map[string]any{"scenarios": raw}) // encoding raw JSON cannot fail
	return Request{Kind: "batch", Method: "POST", Path: "/v1/rtt:batch", Body: body, Scs: scs}
}

func sweepRequest(sc scenario.Scenario) Request {
	req := Request{Kind: "sweep", Method: "POST", Path: "/v1/sweep", Scs: []scenario.Scenario{sc},
		From: 0.05, To: 0.9, Step: 0.05}
	// Raw JSON and finite floats cannot fail to encode.
	req.Body, _ = json.Marshal(map[string]any{"scenario": json.RawMessage(sc.JSON()),
		"from": req.From, "to": req.To, "step": req.Step})
	return req
}

func dimensionRequest(sc scenario.Scenario, boundMs float64) Request {
	req := Request{Kind: "dimension", Method: "POST", Path: "/v1/dimension", Scs: []scenario.Scenario{sc}, BoundMs: boundMs}
	// Raw JSON and finite floats cannot fail to encode.
	req.Body, _ = json.Marshal(map[string]any{"scenario": json.RawMessage(sc.JSON()), "bound_ms": boundMs}) // cannot fail, as above
	return req
}

// zipf draws ranks 0..n-1 with P(r) proportional to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	acc := 0.0
	for r := range n {
		acc += math.Pow(float64(r+1), -s)
		z.cdf[r] = acc
	}
	for r := range z.cdf {
		z.cdf[r] /= acc
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}
