package load

import (
	"context"
	"fmt"

	"fpsping/internal/client"
)

// ReplicaReport is one replica's slice of a cluster load run: the delta of
// its own /metrics and /healthz counters over the measured phase. Against a
// router target, the router's aggregate counters say what the cluster did;
// these say where the work landed.
type ReplicaReport struct {
	Addr string `json:"addr"`
	// Requests and Hits are the replica's model-endpoint deltas over the
	// measured phase.
	Requests uint64 `json:"requests"`
	Hits     uint64 `json:"hits"`
	// Computations is the delta of core model evaluations the replica
	// actually ran — the affinity currency: each canonical key's computes
	// should land on exactly one replica.
	Computations uint64 `json:"computations"`
	// CacheEntries and Ready describe the replica at the closing scrape.
	CacheEntries    int    `json:"cache_entries"`
	Ready           bool   `json:"ready"`
	ReadyGeneration uint64 `json:"ready_generation"`
}

// replicaProbe is one replica's paired scrape (metrics + health).
type replicaProbe struct {
	cli     *client.Client
	addr    string
	metrics client.MetricsSnapshot
	health  replicaHealth
}

// replicaHealth is the slice of the daemon /healthz the cluster reports use.
type replicaHealth struct {
	Computations    uint64
	CacheEntries    int
	Ready           bool
	ReadyGeneration uint64
}

// newReplicaProbes builds one client per replica address.
func newReplicaProbes(addrs []string, timeoutCfg Config) ([]*replicaProbe, error) {
	probes := make([]*replicaProbe, 0, len(addrs))
	for _, addr := range addrs {
		cli, err := client.New(addr, client.WithTimeout(timeoutCfg.RequestTimeout))
		if err != nil {
			return nil, fmt.Errorf("load: replica %s: %w", addr, err)
		}
		probes = append(probes, &replicaProbe{cli: cli, addr: addr})
	}
	return probes, nil
}

// scrape captures the replica's current metrics and health counters.
func (p *replicaProbe) scrape(ctx context.Context) error {
	snap, err := p.cli.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("load: replica %s metrics: %w", p.addr, err)
	}
	h, err := p.cli.Health(ctx)
	if err != nil {
		return fmt.Errorf("load: replica %s healthz: %w", p.addr, err)
	}
	p.metrics = snap
	p.health = replicaHealth{
		Computations:    h.Computations,
		CacheEntries:    h.CacheEntries,
		Ready:           h.Ready,
		ReadyGeneration: h.ReadyGeneration,
	}
	return nil
}

// delta re-scrapes the replica and reports what it did since the previous
// scrape.
func (p *replicaProbe) delta(ctx context.Context) (ReplicaReport, error) {
	pre := *p
	if err := p.scrape(ctx); err != nil {
		return ReplicaReport{}, err
	}
	return p.since(pre)
}

// since reports what the replica did between the scrape held in pre and its
// latest one. A restart in between resets the replica's counters, so it is
// reported as an error rather than as a wrapped-around delta.
func (p *replicaProbe) since(pre replicaProbe) (ReplicaReport, error) {
	if client.Restarted(pre.metrics, p.metrics) || p.health.Computations < pre.health.Computations {
		return ReplicaReport{}, fmt.Errorf("load: replica %s restarted between scrapes", p.addr)
	}
	reqB, _, hitB := pre.metrics.Totals()
	reqA, _, hitA := p.metrics.Totals()
	return ReplicaReport{
		Addr:            p.addr,
		Requests:        reqA - reqB,
		Hits:            hitA - hitB,
		Computations:    p.health.Computations - pre.health.Computations,
		CacheEntries:    p.health.CacheEntries,
		Ready:           p.health.Ready,
		ReadyGeneration: p.health.ReadyGeneration,
	}, nil
}
