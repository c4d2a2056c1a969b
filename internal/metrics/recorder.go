package metrics

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"fpsping/internal/stats"
)

// levels are the latency quantiles each series estimates.
var levels = []float64{0.5, 0.9, 0.99}

// series is one endpoint's request, error and cache-hit counters and its
// latency summary: a Welford mean and one P² estimator per level, so it
// costs O(1) memory however many requests it folds in.
type series struct {
	requests, errors, cacheHits uint64
	latency                     stats.Summary
	quantiles                   []*stats.PQuantile
}

func newSeries() *series {
	s := &series{}
	for _, p := range levels {
		q, _ := stats.NewPQuantile(p) // every level lies in (0, 1)
		s.quantiles = append(s.quantiles, q)
	}
	return s
}

// Recorder is fpspingd's request instrumentation: a series per endpoint
// plus the global one over every instrumented request, which is filed under
// the empty endpoint name and so renders unlabeled.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	global *series
	series map[string]*series
	// probes and dimensionings are the quantile evaluations made by
	// computed dimensioning answers, and how many answers made them.
	probes, dimensionings uint64
}

// NewRecorder returns a recorder with no requests; its uptime starts now.
func NewRecorder() *Recorder {
	g := newSeries()
	return &Recorder{start: time.Now(), global: g, series: map[string]*series{"": g}}
}

// Observe records one request against its endpoint and the global series:
// its latency, whether the engine cache answered it and whether it failed.
// It takes one lock and allocates only on an endpoint's first requests.
func (r *Recorder) Observe(endpoint string, elapsed time.Duration, cached, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[endpoint]
	if !ok {
		s = newSeries()
		r.series[endpoint] = s
	}
	s.observe(elapsed.Seconds(), cached, failed)
	r.global.observe(elapsed.Seconds(), cached, failed)
}

// ObserveDimension records one computed dimensioning answer and the
// quantile evaluations (PointEval calls) its search made, cache hits
// included.
func (r *Recorder) ObserveDimension(probes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes += uint64(probes)
	r.dimensionings++
}

func (s *series) observe(sec float64, cached, failed bool) {
	s.requests++
	if failed {
		s.errors++
	}
	if cached {
		s.cacheHits++
	}
	s.latency.Add(sec)
	for _, q := range s.quantiles {
		q.Add(sec)
	}
}

// Collect adds the uptime and the request families to p: the global series
// first, then every endpoint by name. The dimensioning probe summary joins
// them once a dimensioning answer has been computed.
func (r *Recorder) Collect(p *Page) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.Add(Uptime, "", time.Since(r.start))
	for _, name := range slices.Sorted(maps.Keys(r.series)) {
		s := r.series[name]
		if s.requests == 0 {
			continue
		}
		ls := labels(RequestLatency, name, "")
		p.Add(Requests, name, s.requests)
		p.Add(RequestErrors, name, s.errors)
		p.Add(CacheHits, name, s.cacheHits)
		p.add(RequestLatency, "_sum", ls, s.latency.Mean()*float64(s.latency.Count()))
		p.add(RequestLatency, "_count", ls, s.latency.Count())
		for i, q := range s.quantiles {
			p.add(RequestLatency, "", labels(RequestLatency, name, fmt.Sprintf(`quantile="%g"`, levels[i])), q.Value())
		}
	}
	if r.dimensionings > 0 {
		p.add(DimensionProbes, "_sum", "", r.probes)
		p.add(DimensionProbes, "_count", "", r.dimensionings)
	}
}
