package load

import (
	"fmt"
	"sort"
	"strings"
)

// LatencyReport summarizes measured request latencies in milliseconds:
// Welford moments for mean/max, P² streaming estimators for the quantiles.
type LatencyReport struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// EndpointReport is one endpoint's slice of the measured phase, with its
// own latency quantiles (P² estimators, like the global ones): a sweep's
// hundreds of milliseconds must not hide inside an average dominated by
// sub-millisecond rtt hits.
type EndpointReport struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// CacheReport brackets the measured phase with /metrics cache counters
// (over client.ModelEndpoints). HitRatio is the ratio achieved by the
// measured requests alone — warmup and earlier traffic cancel out.
type CacheReport struct {
	RequestsBefore uint64  `json:"requests_before"`
	HitsBefore     uint64  `json:"hits_before"`
	RequestsAfter  uint64  `json:"requests_after"`
	HitsAfter      uint64  `json:"hits_after"`
	HitRatio       float64 `json:"hit_ratio"`
	// Valid is false when no model-endpoint requests landed between the
	// snapshots (e.g. a models-only mix).
	Valid bool `json:"valid"`
	// EntriesAfter and EvictionsAfter mirror the daemon's memo-cache gauges
	// at the closing scrape (zero against a router, which has no cache).
	EntriesAfter   uint64 `json:"entries_after,omitempty"`
	EvictionsAfter uint64 `json:"evictions_after,omitempty"`
}

// Report is one load run's outcome; it marshals to JSON as the machine
// artifact and formats with Text for humans.
type Report struct {
	Mix  string `json:"mix"`
	Seed uint64 `json:"seed"`
	Jobs int    `json:"jobs"`
	Pool int    `json:"pool"`

	WarmupOps    int `json:"warmup_ops"`
	WarmupErrors int `json:"warmup_errors"`

	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	AchievedRPS    float64 `json:"achieved_rps"`

	Latency      LatencyReport             `json:"latency"`
	Endpoints    map[string]EndpointReport `json:"endpoints"`
	StatusCounts map[string]int            `json:"status_counts"`
	Cache        CacheReport               `json:"cache"`
	// Replicas is the per-replica breakdown of a cluster run (one entry per
	// Config.ReplicaAddrs, in order); empty for single-daemon runs.
	Replicas []ReplicaReport `json:"replicas,omitempty"`

	// Fingerprint is the order-independent hash of the executed operations:
	// equal fingerprints mean equal request multisets, whatever the worker
	// count or interleaving.
	Fingerprint string `json:"fingerprint"`
}

// TotalErrors counts warmup and measured failures together (what an
// error-budget gate should look at).
func (r *Report) TotalErrors() int { return r.WarmupErrors + r.Errors }

// Text renders the human-readable report fpsload prints.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fpsload: mix=%s seed=%d jobs=%d pool=%d\n", r.Mix, r.Seed, r.Jobs, r.Pool)
	fmt.Fprintf(&b, "warmup       %d ops (%d errors)\n", r.WarmupOps, r.WarmupErrors)
	fmt.Fprintf(&b, "requests     %d in %.2fs  ->  %.1f req/s, %d errors\n",
		r.Requests, r.ElapsedSeconds, r.AchievedRPS, r.Errors)
	fmt.Fprintf(&b, "latency ms   mean %.3g  p50 %.3g  p90 %.3g  p95 %.3g  p99 %.3g  max %.3g\n",
		r.Latency.MeanMs, r.Latency.P50Ms, r.Latency.P90Ms,
		r.Latency.P95Ms, r.Latency.P99Ms, r.Latency.MaxMs)
	if r.Cache.Valid {
		fmt.Fprintf(&b, "cache        hit ratio %.3f over measured phase (%d->%d hits / %d->%d requests)\n",
			r.Cache.HitRatio, r.Cache.HitsBefore, r.Cache.HitsAfter,
			r.Cache.RequestsBefore, r.Cache.RequestsAfter)
	} else {
		b.WriteString("cache        no model-endpoint traffic measured\n")
	}
	for _, rep := range r.Replicas {
		state := "ready"
		if !rep.Ready {
			state = "not-ready"
		}
		fmt.Fprintf(&b, "replica      %s  %d requests  %d hits  %d computes  %d entries  %s gen %d\n",
			rep.Addr, rep.Requests, rep.Hits, rep.Computations, rep.CacheEntries, state, rep.ReadyGeneration)
	}
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := r.Endpoints[name]
		fmt.Fprintf(&b, "  %-10s %6d ops  %d errors  mean %.3g  p50 %.3g  p90 %.3g  p99 %.3g ms\n",
			name, ep.Requests, ep.Errors, ep.MeanMs, ep.P50Ms, ep.P90Ms, ep.P99Ms)
	}
	if len(r.StatusCounts) > 1 || r.StatusCounts["200"] != r.Requests {
		statuses := make([]string, 0, len(r.StatusCounts))
		for s := range r.StatusCounts {
			statuses = append(statuses, s)
		}
		sort.Strings(statuses)
		b.WriteString("status     ")
		for _, s := range statuses {
			fmt.Fprintf(&b, "  %s:%d", s, r.StatusCounts[s])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "fingerprint  %s\n", r.Fingerprint)
	return b.String()
}
