// Package service puts the paper's ping model behind a long-lived daemon:
// a concurrency-safe Engine layered over internal/core with an exact LRU
// memo cache (internal/memo) keyed by canonical scenario (the seeded Sum
// tail inversions, ITP dimensioning searches and sweep grids are the hot
// path, so repeated queries must not recompute them),
// batch fan-out over internal/runner, and an HTTP/JSON front end
// (cmd/fpspingd) with counters and latency histograms via internal/stats.
//
// Determinism contract: like every layer below, responses are byte-identical
// at any worker count and identical between cold and cached evaluation, so
// a cache hit is observable only as latency (and in /metrics), never as a
// different answer.
package service

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fpsping/internal/core"
	"fpsping/internal/memo"
	"fpsping/internal/metrics"
	"fpsping/internal/runner"
	"fpsping/internal/scenario"
)

// DefaultCacheSize is the engine's memo-cache capacity when the caller does
// not choose one. At ~330 bytes per point entry (more for a whole RTT,
// sweep or dimensioning response) this stays around a few megabytes while
// covering far more distinct scenarios than a dimensioning session touches.
const DefaultCacheSize = 4096

// Engine evaluates scenarios concurrently with memoization and singleflight
// miss coalescing: concurrent identical cache misses compute once and share
// the result. Computations run outside the memo cache's lock, so a cold
// scenario never blocks hits on others. All methods are safe for concurrent
// use; results handed out on cache hits are shared, so callers must treat
// them as immutable.
type Engine struct {
	jobs    int
	cache   *memo.Cache[any]
	metrics *metrics.Recorder
	// computes counts core model evaluations actually run (one per cold RTT,
	// one per cold sweep point, one per cold dimensioning probe):
	// the observable proof that the cache and singleflight are doing their
	// jobs.
	computes atomic.Uint64
}

// NewEngine returns an engine fanning batch work over at most jobs workers
// (<= 0 means one per CPU) and memoizing up to cacheSize results (<= 0
// means DefaultCacheSize).
func NewEngine(jobs, cacheSize int) *Engine {
	if jobs <= 0 {
		jobs = runner.DefaultWorkers()
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	return &Engine{jobs: jobs, cache: memo.New[any](cacheSize, 0), metrics: metrics.NewRecorder()}
}

// Jobs returns the engine's worker budget.
func (e *Engine) Jobs() int { return e.jobs }

// Metrics returns the engine's request recorder (shared with the HTTP
// layer).
func (e *Engine) Metrics() *metrics.Recorder { return e.metrics }

// CacheStats returns the memo cache's entry count and cumulative
// hit/miss/eviction counters.
func (e *Engine) CacheStats() memo.Stats { return e.cache.Stats() }

// Computes returns the cumulative number of core model evaluations the
// engine has actually run: one per cold RTT, one per cold sweep or
// dimensioning probe (a cold /v1/dimension therefore moves it by
// its probe count, not by one). Under singleflight, K concurrent identical
// cold requests move it exactly as far as one would.
func (e *Engine) Computes() uint64 { return e.computes.Load() }

// ComponentsMs is the RTT decomposition in milliseconds, each stochastic
// part reported at the scenario's quantile level in isolation (the quantile
// of the sum is not the sum of quantiles; Total in RTTResult is the true
// combined quantile).
type ComponentsMs struct {
	Serialization float64 `json:"serialization"`
	Fixed         float64 `json:"fixed"`
	Upstream      float64 `json:"upstream"`
	BurstWait     float64 `json:"burst_wait"`
	Position      float64 `json:"position"`
}

// RTTResult answers one /v1/rtt query: loads, mean, the headline quantile
// and its decomposition, all in milliseconds.
type RTTResult struct {
	// Scenario echoes the query with defaults resolved.
	Scenario scenario.Scenario `json:"scenario"`
	// Gamers is the effective N (after a load shorthand is applied).
	Gamers       float64 `json:"gamers"`
	DownlinkLoad float64 `json:"downlink_load"`
	UplinkLoad   float64 `json:"uplink_load"`
	MeanMs       float64 `json:"mean_ms"`
	// Quantile is the level QuantileMs is evaluated at.
	Quantile   float64      `json:"quantile"`
	QuantileMs float64      `json:"quantile_ms"`
	Components ComponentsMs `json:"components_ms"`
}

// RTT evaluates one scenario's RTT quantile, decomposition and mean,
// memoized on the canonical scenario key with singleflight coalescing: K
// concurrent identical cold requests run one computation and share it. The
// bool reports whether the answer arrived without computing (a cache hit or
// a joined in-flight computation).
func (e *Engine) RTT(sc scenario.Scenario) (RTTResult, bool, error) {
	return e.rtt(sc, sc.Canonical())
}

// rtt is RTT for the scenario whose canonical key is key, so that Batch,
// which keys its items anyway, does not key them twice.
func (e *Engine) rtt(sc scenario.Scenario, key string) (RTTResult, bool, error) {
	if err := sc.Validate(); err != nil {
		return RTTResult{}, false, err
	}
	v, shared, err := e.cache.Do("rtt|"+key, func() (any, error) { return e.computeRTT(sc, key) })
	if err != nil {
		return RTTResult{}, false, err
	}
	out := v.(RTTResult)
	// Echo this request's spelling: equivalent scenarios (load vs gamers,
	// explicit defaults) share a cache slot but keep their own echo, so a
	// hit is byte-identical to what a cold evaluation of the same request
	// would return.
	out.Scenario = sc
	return out, shared, nil
}

// computeRTT is the cold path behind RTT. Besides the full result it stores
// the scenario's sweep-point answer (quantile + gamers, bit-exact in
// seconds) under the shared "pt|" key space, so a later /v1/sweep or
// /v1/dimension whose probes cross this scenario reuses the evaluation
// instead of recomputing it. The scenario's analytic pipeline is staged
// once (core.Model.Compile), and the decomposition, quantile and mean all
// evaluate over that one compiled model, which is dropped with the request:
// the memo keeps answers, never compiled laws.
func (e *Engine) computeRTT(sc scenario.Scenario, key string) (RTTResult, error) {
	e.computes.Add(1)
	m := sc.Model()
	cm, err := m.Compile()
	if err != nil {
		return RTTResult{}, err
	}
	comp, err := cm.Decompose()
	if err != nil {
		return RTTResult{}, err
	}
	out := RTTResult{
		Scenario:     sc,
		Gamers:       m.Gamers,
		DownlinkLoad: m.DownlinkLoad(),
		UplinkLoad:   m.UplinkLoad(),
		MeanMs:       1000 * cm.MeanRTT(),
		Quantile:     m.QuantileLevel(),
		QuantileMs:   1000 * comp.Total,
		Components: ComponentsMs{
			Serialization: 1000 * comp.Serialization,
			Fixed:         1000 * comp.Fixed,
			Upstream:      1000 * comp.Upstream,
			BurstWait:     1000 * comp.BurstWait,
			Position:      1000 * comp.Position,
		},
	}
	e.cache.Put("pt|"+key, pointMemo{Gamers: m.Gamers, RTT: comp.Total})
	return out, nil
}

// SweepPoint is one point of an RTT-versus-load curve.
type SweepPoint struct {
	Load   float64 `json:"load"`
	Gamers float64 `json:"gamers"`
	RTTMs  float64 `json:"rtt_ms"`
}

// SweepResult answers one /v1/sweep query.
type SweepResult struct {
	Scenario scenario.Scenario `json:"scenario"`
	From     float64           `json:"from"`
	To       float64           `json:"to"`
	Step     float64           `json:"step"`
	Points   []SweepPoint      `json:"points"`
}

// Sweep evaluates the RTT-vs-load curve over [from, to] in step increments,
// parallelized over the engine's worker budget and memoized at two levels:
// the grid as a whole (a repeated identical sweep is one lookup) and each
// grid point's answer in the "pt|" point memo that /v1/rtt and
// /v1/dimension write too, so overlapping grids — and sweeps crossing
// scenarios /v1/rtt already answered — reuse point answers instead of
// recomputing them. A point keeps its answer only: a /v1/rtt on a point a
// sweep computed compiles the model again for its decomposition and mean,
// the trade that keeps a cached point at ~330 B at every Erlang order. The curve
// stops at the first unstable load (the asymptote), exactly like
// core.SweepLoads. The range goes through core.CheckLoadGrid, so a
// non-finite or over-long grid is core.ErrBadModel before any work starts.
func (e *Engine) Sweep(sc scenario.Scenario, from, to, step float64) (SweepResult, bool, error) {
	loads, err := core.CheckLoadGrid(from, to, step)
	if err != nil {
		return SweepResult{}, false, err
	}
	if err := sc.Validate(); err != nil {
		return SweepResult{}, false, err
	}
	key := fmt.Sprintf("sweep|%s|%g|%g|%g", sc.Canonical(), from, to, step)
	v, shared, err := e.cache.Do(key, func() (any, error) { return e.computeSweep(sc, loads, from, to, step) })
	if err != nil {
		return SweepResult{}, false, err
	}
	out := v.(SweepResult)
	out.Scenario = sc
	return out, shared, nil
}

// pointMemo is one sweep point's share of an RTT answer, keyed "pt|" +
// canonical scenario: written by both computeRTT and pointAt, read by sweep
// grids and dimensioning searches. RTT is kept in seconds (not the wire
// milliseconds) so a memoized point is bit-identical to a recomputed one.
// An unstable scenario is a cacheable answer too: every grid crossing it
// stops there. It holds the answer only, so a cached point costs the same
// at every Erlang order; the JSON tags are its snapshot record.
type pointMemo struct {
	Gamers   float64 `json:"gamers"`
	RTT      float64 `json:"rtt"`
	Unstable bool    `json:"unstable,omitempty"`
}

// pointAt answers the scenario at downlink load rho through the shared
// per-scenario "pt|" memo, computing (and storing) it only when neither a
// previous sweep or dimensioning nor a /v1/rtt evaluation has seen the
// scenario, and mapping a memoized unstable marker back to
// core.ErrUnstable. It is the one evaluator behind both sweep grids and
// dimensioning searches. The point's model is the scenario with Load = rho,
// the one /v1/rtt compiles for it, so a point is bit-identical whichever
// endpoint computed it and the cache stays invisible in values.
func (e *Engine) pointAt(sc scenario.Scenario, rho float64) (pointMemo, error) {
	psc := sc
	psc.Load = rho
	v, _, err := e.cache.Do("pt|"+psc.Canonical(), func() (any, error) {
		e.computes.Add(1)
		cm, err := psc.Model().Compile()
		if err == nil {
			var rtt float64
			if rtt, err = cm.RTTQuantile(); err == nil {
				return pointMemo{Gamers: cm.Model.Gamers, RTT: rtt}, nil
			}
		}
		if errors.Is(err, core.ErrUnstable) {
			return pointMemo{Unstable: true}, nil
		}
		return nil, err
	})
	if err != nil {
		return pointMemo{}, err
	}
	pm := v.(pointMemo)
	if pm.Unstable {
		return pointMemo{}, core.ErrUnstable
	}
	return pm, nil
}

// computeSweep assembles a cold sweep from per-point memo entries through
// core.SweepGridWith, which owns the serial semantics (error on an invalid
// load before the asymptote, stop at the first unstable point) for the CLI
// and the daemon alike.
func (e *Engine) computeSweep(sc scenario.Scenario, loads []float64, from, to, step float64) (SweepResult, error) {
	pts, err := sc.Model().SweepGridWith(loads, e.jobs,
		func() func(rho float64) (core.SweepPoint, error) {
			return func(rho float64) (core.SweepPoint, error) {
				pm, err := e.pointAt(sc, rho)
				if err != nil {
					return core.SweepPoint{}, err
				}
				return core.SweepPoint{Load: rho, Gamers: pm.Gamers, RTT: pm.RTT}, nil
			}
		})
	if err != nil {
		return SweepResult{}, err
	}
	out := SweepResult{Scenario: sc, From: from, To: to, Step: step,
		Points: make([]SweepPoint, len(pts))}
	for i, p := range pts {
		out.Points[i] = SweepPoint{Load: p.Load, Gamers: p.Gamers, RTTMs: 1000 * p.RTT}
	}
	return out, nil
}

// DimensionResult answers one /v1/dimension query: the §4 dimensioning rule
// for the scenario under an RTT bound.
type DimensionResult struct {
	Scenario        scenario.Scenario `json:"scenario"`
	BoundMs         float64           `json:"bound_ms"`
	MaxDownlinkLoad float64           `json:"max_downlink_load"`
	MaxGamers       int               `json:"max_gamers"`
	RTTAtMaxMs      float64           `json:"rtt_at_max_ms"`
}

// Dimension finds the maximum load and whole-gamer count whose RTT quantile
// stays within boundMs, memoized on (scenario, bound). The search behind it
// (core.Model.MaxLoadWith) evaluates about ten quantile inversions, and
// every one resolves through the shared "pt|" point memo instead of
// bypassing it: a dimensioning reuses points a sweep or an earlier
// dimensioning of the same scenario already computed (searches at
// different bounds share their two opening probes, the vanishing load and
// the stability ceiling), its closing evaluation at the answer is a hit on
// its own probe, and conversely it warms the memo for later sweeps. A
// computed answer folds its probe count into the recorder's dimensioning
// summary once, after the search.
func (e *Engine) Dimension(sc scenario.Scenario, boundMs float64) (DimensionResult, bool, error) {
	if err := sc.Validate(); err != nil {
		return DimensionResult{}, false, err
	}
	key := fmt.Sprintf("dim|%s|%g", sc.Canonical(), boundMs)
	v, shared, err := e.cache.Do(key, func() (any, error) {
		probes := 0
		res, err := sc.Model().MaxLoadWith(boundMs/1000, func(rho float64) (float64, error) {
			probes++
			pm, err := e.pointAt(sc, rho)
			if err != nil {
				return 0, err
			}
			return pm.RTT, nil
		})
		if err != nil {
			return nil, err
		}
		e.metrics.ObserveDimension(probes)
		return DimensionResult{
			Scenario:        sc,
			BoundMs:         boundMs,
			MaxDownlinkLoad: res.MaxDownlinkLoad,
			MaxGamers:       res.MaxGamers,
			RTTAtMaxMs:      1000 * res.RTTAtMax,
		}, nil
	})
	if err != nil {
		return DimensionResult{}, false, err
	}
	out := v.(DimensionResult)
	out.Scenario = sc
	return out, shared, nil
}

// BatchItem is one outcome of a batch evaluation: exactly one of Result or
// Error is set. A per-item error never fails the batch.
type BatchItem struct {
	Result *RTTResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// BatchResult answers one /v1/rtt:batch query, results in request order.
type BatchResult struct {
	Results []BatchItem `json:"results"`
	// Cached counts how many items were answered from the cache.
	Cached int `json:"cached"`
}

// Batch evaluates many scenarios with the per-scenario memoization of RTT,
// fanned out over internal/runner under the shared SetMaxParallel budget.
// Duplicate scenarios within one batch are evaluated once: the duplicates
// are answered from the cache entry the first evaluation stored.
func (e *Engine) Batch(scs []scenario.Scenario) BatchResult {
	out := BatchResult{Results: make([]BatchItem, len(scs))}
	if len(scs) == 0 {
		return out
	}
	// Evaluate distinct scenarios first so intra-batch duplicates become
	// cache hits instead of racing to recompute the same key. Canonical
	// keys are computed once per item; order is in item order by
	// construction.
	keys := make([]string, len(scs))
	first := make(map[string]int, len(scs))
	var order []int
	for i, sc := range scs {
		keys[i] = sc.Canonical()
		if _, ok := first[keys[i]]; !ok {
			first[keys[i]] = i
			order = append(order, i)
		}
	}
	type eval struct {
		res    RTTResult
		cached bool
		err    error
	}
	evals, _ := runner.TryMap(len(order), runner.Options{Workers: e.jobs},
		func(j int) (eval, error) {
			res, cached, err := e.rtt(scs[order[j]], keys[order[j]])
			return eval{res: res, cached: cached, err: err}, nil
		})
	byKey := make(map[string]eval, len(order))
	for j, idx := range order {
		byKey[keys[idx]] = evals[j]
	}
	for i, sc := range scs {
		ev := byKey[keys[i]]
		if ev.err != nil {
			out.Results[i] = BatchItem{Error: ev.err.Error()}
			continue
		}
		res := ev.res
		res.Scenario = sc // echo each item's own spelling
		out.Results[i] = BatchItem{Result: &res}
		if ev.cached || first[keys[i]] != i {
			out.Cached++
		}
	}
	return out
}
