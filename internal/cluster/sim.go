package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"fpsping/internal/dist"
	"fpsping/internal/memo"
	"fpsping/internal/netsim"
	"fpsping/internal/runner"
	"fpsping/internal/stats"
)

// SimConfig parameterizes one deterministic cluster simulation: M replicas
// behind a routing policy, each a FIFO single-server station whose service
// time is the measured hot/cold latency split of a real fpspingd (a cache
// hit answers in microseconds, a cold compute in milliseconds), fed by a
// seeded Poisson arrival stream over a zipf-popular key pool plus a cold
// fraction of never-repeating keys. Identical configs produce byte-identical
// reports at any worker count.
type SimConfig struct {
	// Replicas is the cluster size M.
	Replicas int `json:"replicas"`
	// VNodes is the ring's virtual-node count per replica.
	VNodes int `json:"vnodes"`
	// Seed drives arrivals, key draws and the random policy.
	Seed uint64 `json:"seed"`
	// Requests is the total number of simulated requests.
	Requests int `json:"requests"`
	// ArrivalRate is the offered cluster-wide rate in requests/second.
	ArrivalRate float64 `json:"arrival_rate"`
	// PoolSize is the number of distinct hot keys (the working set).
	PoolSize int `json:"pool_size"`
	// ZipfSkew is the popularity exponent over the pool (0 = uniform).
	ZipfSkew float64 `json:"zipf_skew"`
	// ColdFraction is the probability a request draws a unique fresh key.
	ColdFraction float64 `json:"cold_fraction"`
	// CacheCapacity is each replica's LRU entry budget (0 = unlimited).
	// The interesting regime is capacity < pool size: only a policy that
	// partitions the keyspace lets the cluster's aggregate capacity cover
	// the working set.
	CacheCapacity int `json:"cache_capacity"`
	// HotService and ColdService are the per-request service times in
	// seconds for a cache hit and a cold compute.
	HotService  float64 `json:"hot_service"`
	ColdService float64 `json:"cold_service"`
}

// DefaultSimConfig is the reference simulation the golden report pins: 3
// replicas whose per-replica cache holds half the hot working set, service
// times from the measured fpspingd hot (~2 µs) / cold (~7 ms) split, offered
// load light enough that even the worst policy stays stable.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Replicas:      3,
		VNodes:        DefaultVNodes,
		Seed:          1,
		Requests:      30000,
		ArrivalRate:   400,
		PoolSize:      96,
		ZipfSkew:      1.1,
		ColdFraction:  0.02,
		CacheCapacity: 48,
		HotService:    2e-6,
		ColdService:   7e-3,
	}
}

// validate rejects configurations the event loop cannot run.
func (c SimConfig) validate() error {
	switch {
	case c.Replicas <= 0:
		return fmt.Errorf("cluster: sim needs replicas > 0, got %d", c.Replicas)
	case c.Requests <= 0:
		return fmt.Errorf("cluster: sim needs requests > 0, got %d", c.Requests)
	case !(c.ArrivalRate > 0):
		return fmt.Errorf("cluster: sim needs arrival rate > 0, got %g", c.ArrivalRate)
	case c.PoolSize <= 0:
		return fmt.Errorf("cluster: sim needs pool size > 0, got %d", c.PoolSize)
	case c.ColdFraction < 0 || c.ColdFraction > 1:
		return fmt.Errorf("cluster: cold fraction %g outside [0,1]", c.ColdFraction)
	case !(c.HotService >= 0) || !(c.ColdService >= 0):
		return fmt.Errorf("cluster: negative service time")
	}
	return nil
}

// replicaNames synthesizes the ring's replica names for an M-replica sim.
func replicaNames(m int) []string {
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("replica-%02d", i)
	}
	return names
}

// Stream tags decorrelate the simulator's RNG uses.
const (
	streamSimArrivals = 0xc1a1
	streamSimKeys     = 0xc1a2
	streamSimPolicy   = 0xc1a3
)

// simRequest is one pre-generated arrival: the workload is materialized
// once per comparison so every policy faces the identical request sequence.
type simRequest struct {
	at  float64
	key string
}

// workload generates the seeded arrival stream: Poisson arrivals at
// ArrivalRate, keys zipf-drawn from the hot pool with a ColdFraction of
// unique strays. Pure function of the config.
func (c SimConfig) workload() []simRequest {
	ar := dist.NewRNG(c.Seed, streamSimArrivals)
	kr := dist.NewRNG(c.Seed, streamSimKeys)
	// Cumulative zipf mass over pool ranks (uniform when ZipfSkew == 0).
	cum := make([]float64, c.PoolSize)
	sum := 0.0
	for i := range cum {
		sum += math.Pow(float64(i+1), -c.ZipfSkew)
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	wl := make([]simRequest, c.Requests)
	t := 0.0
	for i := range wl {
		t += ar.ExpFloat64() / c.ArrivalRate
		var key string
		if c.ColdFraction > 0 && kr.Float64() < c.ColdFraction {
			key = fmt.Sprintf("cold-%08d", i)
		} else {
			rank := sort.SearchFloat64s(cum, kr.Float64())
			if rank >= c.PoolSize {
				rank = c.PoolSize - 1
			}
			key = fmt.Sprintf("hot-%04d", rank)
		}
		wl[i] = simRequest{at: t, key: key}
	}
	return wl
}

// ReplicaSim is one replica's slice of a simulation.
type ReplicaSim struct {
	Requests int `json:"requests"`
	Hits     int `json:"hits"`
	Computes int `json:"computes"`
	// MaxQueue is the deepest FIFO backlog observed (waiting requests, not
	// counting the one in service).
	MaxQueue int `json:"max_queue"`
}

// SimResult is one policy's simulated outcome.
type SimResult struct {
	Policy   string `json:"policy"`
	Requests int    `json:"requests"`
	Hits     int    `json:"hits"`
	Computes int    `json:"computes"`
	// HitRatio is the aggregate cluster cache hit ratio.
	HitRatio float64 `json:"hit_ratio"`
	// Sojourn percentiles (queueing + service) in milliseconds, exact over
	// the full sample, not streamed — determinism over elegance.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Spread is max/mean of per-replica request counts: 1.00 is a perfectly
	// balanced cluster.
	Spread   float64      `json:"spread"`
	Replicas []ReplicaSim `json:"per_replica"`
}

// simReplica is one FIFO single-server station.
type simReplica struct {
	busy  bool
	queue []simQueued
	cache *memo.Cache[struct{}]
	stats ReplicaSim
}

type simQueued struct {
	key     string
	arrival float64
}

// SimulatePolicy runs the workload through M replicas under one policy on a
// deterministic event loop (netsim.Engine: equal-time events fire in
// scheduling order). A replica looks its key up when service *starts*, so a
// duplicate queued behind the compute that will cache it scores a hit —
// mirroring the daemon's singleflight. Cold computes enter the LRU at
// service start.
func SimulatePolicy(cfg SimConfig, pol Policy, wl []simRequest) SimResult {
	eng := netsim.NewEngine()
	// Each replica's LRU is the daemon's own (memo.Cache). An unlimited one
	// never holds more keys than the workload has requests.
	capacity := cfg.CacheCapacity
	if capacity < 1 {
		capacity = len(wl)
	}
	reps := make([]*simReplica, cfg.Replicas)
	for i := range reps {
		reps[i] = &simReplica{cache: memo.New[struct{}](capacity, 1)}
	}
	compute := func() (struct{}, error) { return struct{}{}, nil }
	res := SimResult{Policy: pol.Name(), Requests: len(wl)}
	sojourns := make([]float64, 0, len(wl))

	var start func(rep *simReplica, q simQueued)
	start = func(rep *simReplica, q simQueued) {
		rep.busy = true
		svc := cfg.ColdService
		if _, hit, _ := rep.cache.Do(q.key, compute); hit {
			rep.stats.Hits++
			res.Hits++
			svc = cfg.HotService
		} else {
			rep.stats.Computes++
			res.Computes++
		}
		eng.Schedule(svc, func() {
			sojourns = append(sojourns, eng.Now()-q.arrival)
			if len(rep.queue) == 0 {
				rep.busy = false
				return
			}
			next := rep.queue[0]
			rep.queue = rep.queue[1:]
			start(rep, next)
		})
	}
	for _, rq := range wl {
		rq := rq
		eng.ScheduleAt(rq.at, func() {
			rep := reps[pol.Candidates(rq.key)[0]]
			rep.stats.Requests++
			if rep.busy {
				rep.queue = append(rep.queue, simQueued{key: rq.key, arrival: eng.Now()})
				if len(rep.queue) > rep.stats.MaxQueue {
					rep.stats.MaxQueue = len(rep.queue)
				}
				return
			}
			start(rep, simQueued{key: rq.key, arrival: eng.Now()})
		})
	}
	eng.Run(math.Inf(1))

	res.HitRatio = float64(res.Hits) / float64(res.Requests)
	sort.Float64s(sojourns)
	sum := 0.0
	for _, s := range sojourns {
		sum += s
	}
	res.MeanMs = 1000 * sum / float64(len(sojourns))
	res.P50Ms = 1000 * stats.SortedQuantile(sojourns, 0.50)
	res.P99Ms = 1000 * stats.SortedQuantile(sojourns, 0.99)
	res.MaxMs = 1000 * sojourns[len(sojourns)-1]
	maxReq := 0
	for _, rep := range reps {
		res.Replicas = append(res.Replicas, rep.stats)
		if rep.stats.Requests > maxReq {
			maxReq = rep.stats.Requests
		}
	}
	res.Spread = float64(maxReq) * float64(cfg.Replicas) / float64(res.Requests)
	return res
}

// Comparison is one multi-policy simulation run: the shared config and one
// result per policy, in the requested order.
type Comparison struct {
	Config  SimConfig   `json:"config"`
	Results []SimResult `json:"results"`
}

// ComparePolicies simulates every named policy against the identical
// workload, fanning policies out over at most jobs workers (<= 0 means
// serial). The workload is generated once and shared; each policy gets its
// own decorrelated RNG stream, so the report is byte-identical at any jobs
// value (runner collection is ordered).
func ComparePolicies(cfg SimConfig, policies []string, jobs int) (*Comparison, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		policies = AllPolicies
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	wl := cfg.workload()
	results, err := runner.Map(len(policies), runner.Options{Workers: jobs},
		func(i int) (SimResult, error) {
			ring, err := NewRing(replicaNames(cfg.Replicas), cfg.VNodes)
			if err != nil {
				return SimResult{}, err
			}
			pol, err := NewPolicy(policies[i], ring, dist.SplitSeed(cfg.Seed, streamSimPolicy, uint64(i)))
			if err != nil {
				return SimResult{}, err
			}
			return SimulatePolicy(cfg, pol, wl), nil
		})
	if err != nil {
		return nil, err
	}
	return &Comparison{Config: cfg, Results: results}, nil
}

// Text renders the byte-stable comparison report the golden file pins.
func (c *Comparison) Text() string {
	var b strings.Builder
	cfg := c.Config
	fmt.Fprintf(&b, "cluster-sim: replicas=%d vnodes=%d seed=%d requests=%d rate=%g/s\n",
		cfg.Replicas, cfg.VNodes, cfg.Seed, cfg.Requests, cfg.ArrivalRate)
	fmt.Fprintf(&b, "workload:    pool=%d zipf=%.2f cold=%.2f cache=%d/replica hot=%gs cold-svc=%gs\n",
		cfg.PoolSize, cfg.ZipfSkew, cfg.ColdFraction, cfg.CacheCapacity, cfg.HotService, cfg.ColdService)
	fmt.Fprintf(&b, "%-11s %9s %9s %9s %9s %9s %7s %7s\n",
		"policy", "hit-ratio", "computes", "mean-ms", "p50-ms", "p99-ms", "max-q", "spread")
	for _, r := range c.Results {
		fmt.Fprintf(&b, "%-11s %9.4f %9d %9.4f %9.4f %9.4f %7d %7.2f\n",
			r.Policy, r.HitRatio, r.Computes, r.MeanMs, r.P50Ms, r.P99Ms, maxQueue(r), r.Spread)
	}
	for _, r := range c.Results {
		fmt.Fprintf(&b, "%-11s per-replica", r.Policy)
		for i, rep := range r.Replicas {
			fmt.Fprintf(&b, "  [%d] req=%d hit=%d compute=%d", i, rep.Requests, rep.Hits, rep.Computes)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// maxQueue is the deepest backlog over all replicas.
func maxQueue(r SimResult) int {
	m := 0
	for _, rep := range r.Replicas {
		if rep.MaxQueue > m {
			m = rep.MaxQueue
		}
	}
	return m
}

// JSON renders the comparison as an indented machine-readable artifact.
func (c *Comparison) JSON() []byte {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic("cluster: comparison marshal cannot fail: " + err.Error())
	}
	return append(data, '\n')
}
