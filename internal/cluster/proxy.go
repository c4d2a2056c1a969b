package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/metrics"
	"fpsping/internal/service"
)

// ReplicaHeader names the response header the router adds carrying the
// replica that answered — the observable trace of every routing decision.
const ReplicaHeader = "X-Fpsping-Replica"

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Replicas are the fpspingd base URLs ("http://host:port").
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (0 = default).
	VNodes int
	// Policy selects the routing policy (empty = PolicyAffinity).
	Policy string
	// Seed drives the random policy's draws.
	Seed uint64
	// LoadFactor enables the bounded-load variant when > 1: a keyed request
	// spills past its owner to the next ring candidate while the owner's
	// in-flight count exceeds ceil(LoadFactor * (total in-flight + 1) /
	// healthy replicas). 0 disables spilling (pure affinity).
	LoadFactor float64
	// HealthInterval is the /healthz polling period (0 = 1s).
	HealthInterval time.Duration
	// BreakerFailures opens a replica's circuit after this many consecutive
	// forwarding failures (0 = 3).
	BreakerFailures int
	// BreakerCooldown is how long an open circuit rejects a replica before
	// a probe request may close it again (0 = 5s).
	BreakerCooldown time.Duration
	// Timeout bounds one forwarded request (0 = 60s).
	Timeout time.Duration
}

// normalize fills defaults in place and validates.
func (c *RouterConfig) normalize() error {
	if len(c.Replicas) == 0 {
		return errors.New("cluster: router needs at least one replica")
	}
	if c.Policy == "" {
		c.Policy = PolicyAffinity
	}
	if c.LoadFactor != 0 && c.LoadFactor <= 1 {
		return fmt.Errorf("cluster: load factor %g must be > 1 (or 0 to disable)", c.LoadFactor)
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return nil
}

// breaker is a per-replica circuit breaker: BreakerFailures consecutive
// forwarding failures open it for BreakerCooldown; the first request after
// the cooldown is the probe that either closes it or re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
}

// Allow reports whether a request may be sent (closed, or open past its
// cooldown — the half-open probe).
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures < b.threshold || !now.Before(b.openUntil)
}

// Success closes the circuit.
func (b *breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

// Failure records one failure, (re-)arming the cooldown at the threshold.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	b.failures++
	if b.failures >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
	b.mu.Unlock()
}

// State reports "closed", "open" or "half-open" for health reporting.
func (b *breaker) State(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.failures < b.threshold:
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// replicaState is the router's live view of one replica.
type replicaState struct {
	name     string
	cli      *client.Client
	alive    atomic.Bool
	ready    atomic.Bool
	readyGen atomic.Uint64
	inflight atomic.Int64
	requests atomic.Uint64
	errors   atomic.Uint64
	lastErr  atomic.Value // string
	breaker  breaker
}

// Router is the scenario-affinity reverse proxy: it decodes /v1/rtt,
// /v1/sweep and /v1/dimension requests with the daemon's own decoders,
// routes each by its canonical scenario key and policy over the ring with
// health-based retry-next-owner failover and per-replica circuit breaking,
// and splits /v1/rtt:batch by per-item key so
// intra-batch dedup still lands on the owning replica. Responses are the
// replicas' own bytes (plus ReplicaHeader), so a cluster answers
// byte-identically to a single daemon.
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	policy   Policy
	replicas []*replicaState
	rr       atomic.Uint64 // round-robin cursor for key-less forwarding

	// rec holds the daemon's per-endpoint request series, so a load
	// generator measures the cluster exactly as it measures one daemon.
	rec     *metrics.Recorder
	retries atomic.Uint64
	spills  atomic.Uint64
	splits  atomic.Uint64
	noHome  atomic.Uint64
}

// NewRouter validates the config and builds the router. Replicas start
// presumed alive and ready; Start (or CheckReplicas) refines that view.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	pol, err := NewPolicy(cfg.Policy, ring, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, ring: ring, policy: pol, rec: metrics.NewRecorder()}
	for _, name := range cfg.Replicas {
		cli, err := client.New(name, client.WithTimeout(cfg.Timeout))
		if err != nil {
			return nil, err
		}
		st := &replicaState{name: name, cli: cli}
		st.alive.Store(true)
		st.ready.Store(true)
		st.lastErr.Store("")
		st.breaker.threshold = cfg.BreakerFailures
		st.breaker.cooldown = cfg.BreakerCooldown
		rt.replicas = append(rt.replicas, st)
	}
	return rt, nil
}

// Start launches the health-polling loop; it stops when ctx is canceled.
func (rt *Router) Start(ctx context.Context) {
	go func() {
		rt.CheckReplicas(ctx)
		tick := time.NewTicker(rt.cfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				rt.CheckReplicas(ctx)
			}
		}
	}()
}

// CheckReplicas polls every replica's /healthz once, concurrently, updating
// alive/ready/generation. A reachable replica reporting ready=false is
// draining — routed away from, but not a breaker failure; an unreachable
// one is dead.
func (rt *Router) CheckReplicas(ctx context.Context) {
	probeTimeout := rt.cfg.HealthInterval
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, st := range rt.replicas {
		wg.Add(1)
		go func(st *replicaState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			h, err := st.cli.Health(pctx)
			if err != nil {
				st.alive.Store(false)
				st.lastErr.Store(err.Error())
				return
			}
			st.alive.Store(true)
			st.ready.Store(h.Ready)
			st.readyGen.Store(h.ReadyGeneration)
			st.lastErr.Store("")
		}(st)
	}
	wg.Wait()
}

// Handler returns the router's full route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range map[string]service.Endpoint{
		"/v1/rtt":       rt.keyed("/v1/rtt", service.DecodeRTT),
		"/v1/sweep":     rt.keyed("/v1/sweep", service.DecodeSweep),
		"/v1/dimension": rt.keyed("/v1/dimension", service.DecodeDimension),
		"/v1/rtt:batch": rt.handleBatch,
		"/v1/models": func(w http.ResponseWriter, r *http.Request) (bool, error) {
			return rt.relay(w, r, rt.rrOrder(), "/v1/models", nil), nil
		},
	} {
		mux.HandleFunc(path, service.Instrument(rt.rec, path, h))
	}
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// rrOrder returns all replica indices starting from a rotating cursor: the
// fallback order for requests without a scenario key.
func (rt *Router) rrOrder() []int {
	n := len(rt.replicas)
	start := int(rt.rr.Add(1)-1) % n
	out := make([]int, n)
	for i := range out {
		out[i] = (start + i) % n
	}
	return out
}

// eligible reports whether a replica should receive new traffic: alive,
// not draining, and its circuit allows a request.
func (rt *Router) eligible(idx int, now time.Time) bool {
	st := rt.replicas[idx]
	return st.alive.Load() && st.ready.Load() && st.breaker.Allow(now)
}

// loadBound is the bounded-load ceiling on one replica's in-flight count.
func (rt *Router) loadBound(now time.Time) int64 {
	if rt.cfg.LoadFactor == 0 {
		return math.MaxInt64
	}
	var total int64
	healthy := 0
	for i, st := range rt.replicas {
		total += st.inflight.Load()
		if rt.eligible(i, now) {
			healthy++
		}
	}
	if healthy == 0 {
		healthy = len(rt.replicas)
	}
	return int64(math.Ceil(rt.cfg.LoadFactor * float64(total+1) / float64(healthy)))
}

// order filters candidates to eligible replicas (all of them when none are
// eligible — a desperate attempt beats an unconditional 502), then applies
// the bounded-load spill: while the front candidate is over the in-flight
// ceiling and a cooler candidate exists, rotate it back.
func (rt *Router) order(candidates []int, now time.Time) []int {
	chosen := make([]int, 0, len(candidates))
	for _, idx := range candidates {
		if rt.eligible(idx, now) {
			chosen = append(chosen, idx)
		}
	}
	if len(chosen) == 0 {
		return candidates
	}
	if rt.cfg.LoadFactor > 0 && len(chosen) > 1 {
		bound := rt.loadBound(now)
		for i, idx := range chosen {
			if rt.replicas[idx].inflight.Load()+1 <= bound {
				if i > 0 {
					rt.spills.Add(uint64(i))
					chosen = append(chosen[i:i:i], append(chosen[i:], chosen[:i]...)...)
				}
				break
			}
		}
	}
	return chosen
}

// forwardResult is one replica's answer to a forwarded request.
type forwardResult struct {
	client.Response
	replica int
}

// tryOrder forwards the request to the first candidate that answers,
// walking the failover order on transport errors and gateway-grade (>= 500)
// statuses. Sub-500 statuses are authoritative daemon answers (400 invalid,
// 422 unstable) and are returned as-is.
func (rt *Router) tryOrder(ctx context.Context, candidates []int, method, path, rawQuery string, body []byte) (forwardResult, error) {
	now := time.Now()
	order := rt.order(candidates, now)
	var lastErr error
	for i, idx := range order {
		if i > 0 {
			rt.retries.Add(1)
		}
		st := rt.replicas[idx]
		res, err := rt.forwardOne(ctx, st, method, path, rawQuery, body)
		if err == nil && res.Status < http.StatusInternalServerError {
			st.breaker.Success()
			return forwardResult{res, idx}, nil
		}
		if err == nil {
			err = fmt.Errorf("replica %s answered %d", st.name, res.Status)
		}
		st.errors.Add(1)
		st.lastErr.Store(err.Error())
		st.breaker.Failure(time.Now())
		lastErr = err
	}
	rt.noHome.Add(1)
	return forwardResult{}, fmt.Errorf("cluster: no replica answered %s: %w", path, lastErr)
}

// forwardOne sends the buffered request to one replica, counting it in
// the replica's in-flight and request totals. An over-cap answer is an
// error, so tryOrder fails over instead of relaying a truncated body.
func (rt *Router) forwardOne(ctx context.Context, st *replicaState, method, path, rawQuery string, body []byte) (client.Response, error) {
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	st.inflight.Add(1)
	st.requests.Add(1)
	defer st.inflight.Add(-1)
	return st.cli.Exchange(ctx, method, path, "application/json", body)
}

// copyResponse relays a replica's answer, preserving its bytes and cache
// disposition and stamping which replica answered.
func (rt *Router) copyResponse(w http.ResponseWriter, res forwardResult) {
	if ct := res.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if cache := res.Header.Get(service.CacheHeader); cache != "" {
		w.Header().Set(service.CacheHeader, cache)
	}
	w.Header().Set(ReplicaHeader, rt.replicas[res.replica].name)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

// keyed routes one single-scenario endpoint by the canonical key of the
// request as the daemon decodes it. A request that does not decode goes to
// a replica round-robin, which renders the authoritative error, so the
// router never invents its own validation.
func (rt *Router) keyed(endpoint string, decode service.Decoder) service.Endpoint {
	return func(w http.ResponseWriter, r *http.Request) (bool, error) {
		body, err := service.ReadBody(r)
		if err != nil {
			return false, err
		}
		var candidates []int
		if req, err := decode(r.URL.Query(), body); err == nil {
			candidates = rt.policy.Candidates(req.Scenario.Canonical())
		} else {
			candidates = rt.rrOrder()
		}
		return rt.relay(w, r, candidates, endpoint, body), nil
	}
}

// relay forwards the request along candidates and copies the answer back,
// reporting whether the replica's cache answered it.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, candidates []int, endpoint string, body []byte) bool {
	res, err := rt.tryOrder(r.Context(), candidates, r.Method, endpoint, r.URL.RawQuery, body)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, err)
		return false
	}
	rt.copyResponse(w, res)
	return res.Header.Get(service.CacheHeader) == "hit"
}

// handleBatch splits a batch by per-item canonical key so every item lands
// on its owning replica (intra-batch duplicates share a key, hence a
// sub-batch, hence the replica's dedup still collapses them), forwards the
// sub-batches concurrently, and merges results back into request order.
// Cached counts add up exactly because duplicates can never straddle
// sub-batches. A batch that does not decode is forwarded whole,
// round-robin, for the replica's authoritative 400.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) (bool, error) {
	const endpoint = "/v1/rtt:batch"
	body, err := service.ReadBody(r)
	if err != nil {
		return false, err
	}
	scs, err := service.DecodeBatch(body)
	if err != nil {
		return rt.relay(w, r, rt.rrOrder(), endpoint, body), nil
	}

	// Group item indices by primary owner; each group keeps the candidate
	// order of its first item for failover.
	type group struct {
		order []int
		items []int
	}
	groups := make(map[int]*group)
	var owners []int
	for i, sc := range scs {
		cand := rt.policy.Candidates(sc.Canonical())
		g := groups[cand[0]]
		if g == nil {
			g = &group{order: cand}
			groups[cand[0]] = g
			owners = append(owners, cand[0])
		}
		g.items = append(g.items, i)
	}
	sort.Ints(owners)
	if len(owners) > 1 {
		rt.splits.Add(1)
	}

	type subResult struct {
		res service.BatchResult
		fwd forwardResult
		err error
	}
	subs := make([]subResult, len(owners))
	var wg sync.WaitGroup
	for gi, owner := range owners {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			sub := service.BatchRequest{Scenarios: make([]json.RawMessage, len(g.items))}
			for j, idx := range g.items {
				sub.Scenarios[j] = scs[idx].JSON()
			}
			payload, err := json.Marshal(sub)
			if err != nil {
				subs[gi].err = err
				return
			}
			fwd, err := rt.tryOrder(r.Context(), g.order, http.MethodPost, endpoint, "", payload)
			if err != nil {
				subs[gi].err = err
				return
			}
			subs[gi].fwd = fwd
			if fwd.Status == http.StatusOK {
				subs[gi].err = json.Unmarshal(fwd.Body, &subs[gi].res)
			}
		}(gi, groups[owner])
	}
	wg.Wait()

	out := service.BatchResult{Results: make([]service.BatchItem, len(scs))}
	for gi, owner := range owners {
		sub := subs[gi]
		if sub.err != nil {
			service.WriteError(w, http.StatusBadGateway, fmt.Errorf("cluster: batch shard: %w", sub.err))
			return false, nil
		}
		if sub.fwd.Status != http.StatusOK {
			// An authoritative non-200 from a replica answers the whole batch.
			rt.copyResponse(w, sub.fwd)
			return false, nil
		}
		g := groups[owner]
		if len(sub.res.Results) != len(g.items) {
			service.WriteError(w, http.StatusBadGateway, errors.New("cluster: batch shard answered with wrong item count"))
			return false, nil
		}
		for j, idx := range g.items {
			out.Results[idx] = sub.res.Results[j]
		}
		out.Cached += sub.res.Cached
	}
	cached := out.Cached == len(out.Results)
	service.WriteAnswer(w, out, cached)
	return cached, nil
}

// ReplicaHealth is one replica's state in the router's /healthz answer.
type ReplicaHealth struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	Ready bool   `json:"ready"`
	// ReadyGeneration echoes the replica's monotonic readiness generation,
	// distinguishing a drain (alive, not ready, generation bumped) from a
	// death (not alive).
	ReadyGeneration uint64 `json:"ready_generation"`
	Breaker         string `json:"breaker"`
	Inflight        int64  `json:"inflight"`
	LastError       string `json:"last_error,omitempty"`
}

// RouterHealth answers the router's /healthz.
type RouterHealth struct {
	// Status is "ok" while at least one replica is routable, else
	// "unavailable"; Ready mirrors it so client.WaitReady works against a
	// router exactly as against a daemon.
	Status   string          `json:"status"`
	Ready    bool            `json:"ready"`
	Policy   string          `json:"policy"`
	VNodes   int             `json:"vnodes"`
	Routable int             `json:"routable"`
	Replicas []ReplicaHealth `json:"replicas"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	h := RouterHealth{Policy: rt.cfg.Policy, VNodes: rt.ring.VNodes()}
	for i, st := range rt.replicas {
		h.Replicas = append(h.Replicas, ReplicaHealth{
			Name:            st.name,
			Alive:           st.alive.Load(),
			Ready:           st.ready.Load(),
			ReadyGeneration: st.readyGen.Load(),
			Breaker:         st.breaker.State(now),
			Inflight:        st.inflight.Load(),
			LastError:       st.lastErr.Load().(string),
		})
		if rt.eligible(i, now) {
			h.Routable++
		}
	}
	h.Status = "ok"
	h.Ready = true
	status := http.StatusOK
	if h.Routable == 0 {
		h.Status = "unavailable"
		h.Ready = false
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, h)
}

// handleMetrics renders the daemon's request families, so a load generator
// measures the cluster as it measures one daemon, then the router's own.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	var p metrics.Page
	rt.rec.Collect(&p)
	p.Add(metrics.RouterReplicas, "", len(rt.replicas))
	p.Add(metrics.RouterRetries, "", rt.retries.Load())
	p.Add(metrics.RouterSpills, "", rt.spills.Load())
	p.Add(metrics.RouterBatchSplits, "", rt.splits.Load())
	p.Add(metrics.RouterNoReplica, "", rt.noHome.Load())
	for _, st := range rt.replicas {
		p.Add(metrics.ReplicaUp, st.name, st.alive.Load())
		p.Add(metrics.ReplicaReady, st.name, st.ready.Load())
		p.Add(metrics.ReplicaRequests, st.name, st.requests.Load())
		p.Add(metrics.ReplicaErrors, st.name, st.errors.Load())
		p.Add(metrics.ReplicaInflight, st.name, st.inflight.Load())
		p.Add(metrics.BreakerOpen, st.name, st.breaker.State(now) != "closed")
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, p.String())
}
