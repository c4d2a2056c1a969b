package client

import (
	"fmt"

	"fpsping/internal/metrics"
)

// ModelEndpoints are the daemon endpoints whose answers the engine cache
// can serve — the denominator of every cache-hit-ratio computation.
// (/v1/models is static and /healthz and /metrics are uninstrumented, so
// none of them belong here.)
var ModelEndpoints = []string{"/v1/rtt", "/v1/rtt:batch", "/v1/sweep", "/v1/dimension"}

// EndpointMetrics is one endpoint's slice of a /metrics scrape.
type EndpointMetrics struct {
	Requests  uint64
	Errors    uint64
	CacheHits uint64
	// LatencySumSeconds and LatencyCount reproduce the Prometheus
	// summary pair; Quantiles maps the exported level ("0.5", "0.9",
	// "0.99") to its latency estimate in seconds.
	LatencySumSeconds float64
	LatencyCount      uint64
	Quantiles         map[string]float64
}

// CacheMetrics is the engine cache's slice of a /metrics scrape: the
// occupancy gauge plus the lookup and eviction counters.
// LookupHits/LookupMisses count cache probes (singleflight joiners probe
// too), unlike the per-endpoint CacheHits, which count requests answered
// without computing.
type CacheMetrics struct {
	Entries      uint64
	LookupHits   uint64
	LookupMisses uint64
	Evictions    uint64
}

// MetricsSnapshot is one parsed /metrics scrape. Two snapshots bracket a
// run: their difference is what the run did (see CacheHitRatioDelta).
type MetricsSnapshot struct {
	UptimeSeconds float64
	// Global aggregates every instrumented request, whatever the endpoint
	// (the unlabeled series a daemon and a router both keep).
	Global    EndpointMetrics
	Endpoints map[string]EndpointMetrics
	Cache     CacheMetrics
}

// ParseMetrics parses a daemon's or a router's /metrics page through the
// metrics family table; other families are ignored.
func ParseMetrics(data []byte) (MetricsSnapshot, error) {
	snap := MetricsSnapshot{Endpoints: make(map[string]EndpointMetrics)}
	samples, err := metrics.Parse(data)
	if err != nil {
		return snap, fmt.Errorf("client: %w", err)
	}
	c := &snap.Cache
	for _, s := range samples {
		n := uint64(s.Value)
		switch s.Family {
		case metrics.Uptime:
			snap.UptimeSeconds = s.Value
		case metrics.CacheEntries:
			c.Entries = n
		case metrics.CacheLookupHits:
			c.LookupHits = n
		case metrics.CacheLookupMisses:
			c.LookupMisses = n
		case metrics.CacheEvictions:
			c.Evictions = n
		case metrics.Requests, metrics.RequestErrors, metrics.CacheHits, metrics.RequestLatency:
			// Unlabeled request samples are the daemon's global aggregate;
			// they file under "" until the end.
			es := snap.Endpoints[s.Label]
			switch {
			case s.Family == metrics.Requests:
				es.Requests = n
			case s.Family == metrics.RequestErrors:
				es.Errors = n
			case s.Family == metrics.CacheHits:
				es.CacheHits = n
			case s.Suffix == "_sum":
				es.LatencySumSeconds = s.Value
			case s.Suffix == "_count":
				es.LatencyCount = n
			default:
				if es.Quantiles == nil {
					es.Quantiles = make(map[string]float64)
				}
				es.Quantiles[s.Quantile] = s.Value
			}
			snap.Endpoints[s.Label] = es
		}
	}
	snap.Global = snap.Endpoints[""]
	delete(snap.Endpoints, "")
	return snap, nil
}

// Totals sums requests, errors and cache hits over the named endpoints
// (ModelEndpoints when none are given).
func (s MetricsSnapshot) Totals(endpoints ...string) (requests, errors, hits uint64) {
	if len(endpoints) == 0 {
		endpoints = ModelEndpoints
	}
	for _, ep := range endpoints {
		es := s.Endpoints[ep]
		requests += es.Requests
		errors += es.Errors
		hits += es.CacheHits
	}
	return requests, errors, hits
}

// CacheHitRatioDelta returns the cache hit ratio of only the requests made
// between two snapshots — the marginal ratio a load phase achieved,
// regardless of what warmed the cache before it (against a zero
// MetricsSnapshot, the cumulative ratio). ok is false when no requests
// landed in between, or when the target restarted in between.
func CacheHitRatioDelta(before, after MetricsSnapshot, endpoints ...string) (ratio float64, ok bool) {
	reqB, _, hitB := before.Totals(endpoints...)
	reqA, _, hitA := after.Totals(endpoints...)
	if Restarted(before, after) || reqA <= reqB {
		return 0, false
	}
	return float64(hitA-hitB) / float64(reqA-reqB), true
}

// Restarted reports whether after was scraped from a later process than
// before: its uptime or an endpoint's counter went down. Counters restart
// at zero with the process, so a delta across a restart would wrap around.
func Restarted(before, after MetricsSnapshot) bool {
	for ep, b := range before.Endpoints {
		if a := after.Endpoints[ep]; a.Requests < b.Requests || a.Errors < b.Errors || a.CacheHits < b.CacheHits {
			return true
		}
	}
	return after.UptimeSeconds < before.UptimeSeconds
}
