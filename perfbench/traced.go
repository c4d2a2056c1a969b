package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/cluster"
	"fpsping/internal/core"
	"fpsping/internal/memo"
	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// Sample sizes of the in-process replay and of the live probes: how many
// of the workload's requests (or distinct scenarios) each layer's entry
// points are timed on. Requests are taken from the end of the live stream;
// the probes walk it newest first, so every probe is answered from the
// daemon's LRU instead of recomputing what a cold workload evicted.
const (
	replayRequests  = 200 // scenario, service
	replayScenarios = 29  // queueing, core, mgf: K 2-30 once on cold-rtt
	replayWalks     = 8   // runner, core walk, dimensioning probes
	probePairs      = 100 // client and cluster paired probes
)

// traced is the per-layer run. It measures the live deployment at the
// nominal rate in alternating untraced and traced blocks (their latency
// ratio is the tracing overhead), probes the client and cluster hops, then
// replays the same generated inputs in-process through each layer's public
// entry points, one span per call.
func traced(ctx context.Context, o options, wl Workload) (*Result, error) {
	g := newGen(wl, o.seed)
	dir := logDir(o, wl)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o.out = dir
	dep, warm, _, err := setUp(ctx, o, wl, g, "trace")
	if err != nil {
		return nil, err
	}
	defer dep.Stop()
	tr := newTracer()
	clients := newClients()
	defer closeClients(clients)

	// Live phase: blocks U T U T, each 15% of --seconds, on one request
	// stream; traced blocks give every client call a root span.
	block := time.Duration(float64(o.seconds) * 0.15 * float64(time.Second))
	sched := g.Schedule(streamNominal, wl.NominalRPS, 4*block)
	reqs := requests(g, streamNominal, len(sched))
	h0, err := dep.health(ctx)
	if err != nil {
		return nil, err
	}
	routerCPU0, err := dep.CPU(true)
	if err != nil {
		return nil, err
	}
	var phases [4]*Phase
	var live []Sample
	for b := range phases {
		lo := searchDur(sched, time.Duration(b)*block)
		hi := searchDur(sched, time.Duration(b+1)*block)
		bs := make([]time.Duration, hi-lo)
		for i := range bs {
			bs[i] = sched[lo+i] - time.Duration(b)*block
		}
		var onDone func(time.Time, Sample)
		if b%2 == 1 {
			onDone = func(start time.Time, s Sample) {
				tr.Record("client.request", 0, int64(lo+s.Req), start.Add(s.Send), start.Add(s.End))
			}
		}
		phases[b] = runOpenLoop(ctx, clients, dep.Target, reqs[lo:hi], bs, onDone)
		for _, s := range phases[b].Samples {
			s.Req += lo
			live = append(live, s)
		}
	}
	h1, err := dep.health(ctx)
	if err != nil {
		return nil, err
	}
	routerCPU1, err := dep.CPU(true)
	if err != nil {
		return nil, err
	}
	ops := len(live)

	ring, err := cluster.NewRing(ringNames(dep.Replicas), 0)
	if err != nil {
		return nil, err
	}
	probes := make([]Request, 0, probePairs)
	for i := len(reqs) - 1; i >= 0 && len(probes) < probePairs; i-- {
		probes = append(probes, reqs[i])
	}
	if err := clientProbes(ctx, tr, dep, ring, probes); err != nil {
		return nil, err
	}
	probeAffinity, err := hopProbes(ctx, tr, dep, ring, probes)
	if err != nil {
		return nil, err
	}
	hEnd, err := dep.health(ctx)
	if err != nil {
		return nil, err
	}
	dep.Stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Answer check and the single-engine compute baseline.
	ref := newReference()
	ref.Compute(g.Warmup())
	ref.Compute(reqs)
	res := newResult()
	warmFailed := countFailed(ref, g.Warmup(), warm)
	for _, s := range live {
		if s.Sent {
			res.Attempted++
			if !ref.Check(reqs[s.Req], s.Status, s.Body) {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0 && warmFailed == 0

	replay(tr, wl, reqs)
	spans := tr.Spans()
	if err := tr.WriteFile(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	st := aggregate(spans)
	us := func(name string) float64 { return float64(st[name].SelfMedian) / 1e3 }
	n := func(name string) string { return fmt.Sprintf("n=%d", st[name].N) }

	hd := h1.minus(h0)
	res.add("scenario.parse_us", us("scenario.parse"), "us", n("scenario.parse")+" scenario.FromJSON")
	res.add("scenario.canonical_us", us("scenario.canonical"), "us", n("scenario.canonical")+" Scenario.Canonical")
	res.add("memo.hit_ratio", ratio(hd.Hits, hd.Hits+hd.Misses), "share",
		fmt.Sprintf("/healthz delta: %d hits, %d misses", hd.Hits, hd.Misses))
	res.add("memo.evictions_per_kop", 1000*float64(hd.Evictions)/float64(ops), "1/kop",
		fmt.Sprintf("/healthz delta: %d evictions over %d ops", hd.Evictions, ops))
	res.add("memo.do_hit_us", us("memo.do_hit"), "us", n("memo.do_hit")+" memo.Cache.Do hits replaying the key stream")
	res.add("service.engine_hit_us", us("service.engine_hit"), "us", n("service.engine_hit")+" Engine.RTT, warm")
	res.add("service.engine_miss_us", us("service.engine_miss"), "us", n("service.engine_miss")+" Engine.RTT, fresh engine")
	res.add("service.http_self_us", float64(pairedDiff(spans, "service.handler", "service.engine_call"))/1e3, "us",
		n("service.handler")+" computed: Server.Handler minus the same engine call, warm, per request")
	res.add("service.encode_us", us("service.encode"), "us", n("service.encode")+" json.Marshal of the result")
	res.add("service.computes_per_op", float64(hd.Computations)/float64(ops), "count",
		fmt.Sprintf("/healthz computations delta %d over %d ops", hd.Computations, ops))
	res.add("client.overhead_us", us("client.call")-us("service.handler"), "us",
		fmt.Sprintf("%s computed: client.Client.Do round trip %.1fus minus in-process handler", n("client.call"), us("client.call")))
	res.add("cluster.hop_us", float64(pairedDiff(spans, "cluster.routed", "cluster.direct"))/1e3, "us",
		n("cluster.routed")+" computed: routed minus direct, paired probes")
	res.add("cluster.ring_owner_ns", float64(st["cluster.ring_owner"].SelfMedian), "ns",
		n("cluster.ring_owner")+" Ring.Owner, 2 replicas")
	affinity, affNote := probeAffinity, "in-process router over the single replica"
	if wl.Deployment == "routed" {
		affinity, affNote = liveAffinity(live, reqs, ring, dep.Replicas)
	}
	res.add("cluster.affinity_share", affinity, "share", affNote)
	redundant := float64(hEnd.Computations) - float64(ref.Engine.Computes())
	res.add("cluster.redundant_computes", redundant, "count",
		fmt.Sprintf("deployment computations %d minus one fresh engine's %d for the same stream", hEnd.Computations, ref.Engine.Computes()))
	res.add("cluster.router_cpu_ms_per_op", float64(routerCPU1-routerCPU0)/1e6/float64(ops), "ms",
		"fpsrouter process CPU per op (0 without a router)")
	res.add("queueing.solve_us", us("queueing.solve"), "us", n("queueing.solve")+" DEK1.Solve")
	res.add("queueing.solve_from_us", us("queueing.solve_from"), "us", n("queueing.solve_from")+" DEK1.SolveFrom, neighbouring load")
	res.add("core.compile_self_us", us("core.compile")-us("queueing.solve"), "us",
		n("core.compile")+" computed: Model.Compile minus DEK1.Solve")
	res.add("core.decompose_us", us("core.decompose"), "us", n("core.decompose")+" CompiledModel.Decompose")
	res.add("core.walk_point_us", us("core.walk_point"), "us", n("core.walk_point")+" LoadPath.Point")
	res.add("core.probes_per_op", float64(st["core.probe"].N)/float64(max(1, st["core.max_load"].N)), "count",
		n("core.max_load")+" PointEval calls per Model.MaxLoadWith")
	res.add("mgf.quantile_us", us("mgf.quantile"), "us", n("mgf.quantile")+" CompiledLaw.Quantile, cold")
	res.add("mgf.tail_us", us("mgf.tail"), "us", n("mgf.tail")+" mgf.Law.Tail at the answer")
	res.add("mgf.tail_evals_est", us("mgf.quantile")/us("mgf.tail"), "count", "computed: quantile time over tail time")
	res.add("runner.sweep_efficiency", sweepEfficiency(spans), "share",
		n("runner.sweep")+" sum of point times / (wall x workers), SweepGridWith")
	var lagsT, latU, latT []float64
	for b, ph := range phases {
		lagsT = append(lagsT, ph.sendLags()...)
		for _, l := range ph.latencies() {
			if b%2 == 0 {
				latU = append(latU, l)
			} else {
				latT = append(latT, l)
			}
		}
	}
	lags := sortedCopy(lagsT)
	res.add("bench.send_lag_p99_ms", quantile(lags, tailLevel(len(lags))), "ms", fmt.Sprintf("n=%d generator timer lateness", len(lags)))
	res.add("bench.trace_overhead_share", median(latT)/median(latU)-1, "share",
		fmt.Sprintf("median latency traced (n=%d) over untraced (n=%d) blocks, minus 1", len(latT), len(latU)))
	res.report("failed_share", float64(res.Failed)/float64(max(1, res.Attempted)), "share",
		fmt.Sprintf("%d of %d attempted (warmup failures %d)", res.Failed, res.Attempted, warmFailed))
	return res, nil
}

func searchDur(xs []time.Duration, t time.Duration) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := (lo + hi) / 2
		if xs[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ringNames is the two-replica ring the router builds for a routed
// deployment; a direct deployment is given a second, unused name so Owner
// is timed on the same ring shape.
func ringNames(replicas []string) []string {
	if len(replicas) >= 2 {
		return replicas
	}
	return append(append([]string(nil), replicas...), "http://127.0.0.1:1")
}

// keyed reports whether the router routes r by one scenario key.
func keyed(r Request) bool { return r.Kind == "rtt" || r.Kind == "sweep" || r.Kind == "dimension" }

// clientProbes times client.Client.Do round trips against the replica that
// owns each probed request (warm by now), one client.call span each.
func clientProbes(ctx context.Context, tr *Tracer, dep *Deployment, ring *cluster.Ring, reqs []Request) error {
	clients := make(map[string]*client.Client)
	for i, r := range reqs {
		base := dep.Replicas[0]
		if len(dep.Replicas) > 1 {
			if !keyed(r) {
				continue
			}
			base = dep.Replicas[ring.Owner(r.Scs[0].Canonical())]
		}
		c := clients[base]
		if c == nil {
			var err error
			if c, err = client.New(base); err != nil {
				return err
			}
			clients[base] = c
		}
		var body any
		if r.Body != nil {
			body = json.RawMessage(r.Body)
		}
		var out json.RawMessage
		var callErr error
		tr.Time("client.call", 0, int64(i), func() { _, callErr = c.Do(ctx, r.Method, r.Path, body, &out) })
		if callErr != nil {
			return fmt.Errorf("client probe: %w", callErr)
		}
	}
	return nil
}

// hopProbes sends each keyed request through a router and directly to the
// key's owner (cluster.routed and cluster.direct spans), alternating which
// goes first, and returns the share of routed probes the owner answered. A
// routed deployment probes its fpsrouter process; a direct one gets an
// in-process cluster.Router over its replica.
func hopProbes(ctx context.Context, tr *Tracer, dep *Deployment, ring *cluster.Ring, reqs []Request) (float64, error) {
	routerBase := dep.Target
	probeRing := ring
	if dep.router == nil {
		rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: dep.Replicas})
		if err != nil {
			return 0, err
		}
		srv := httptest.NewServer(rt.Handler())
		defer srv.Close()
		routerBase = srv.URL
		if probeRing, err = cluster.NewRing(dep.Replicas, 0); err != nil {
			return 0, err
		}
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	n, owned := 0, 0
	for i, r := range reqs {
		if !keyed(r) {
			continue
		}
		direct := dep.Replicas[probeRing.Owner(r.Scs[0].Canonical())]
		for k := range 2 {
			routedTurn := (k == 0) == (n%2 == 0)
			base, name := direct, "cluster.direct"
			if routedTurn {
				base, name = routerBase, "cluster.routed"
			}
			start := time.Now()
			status, _, rep, err := send(ctx, hc, base, r)
			end := time.Now()
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("hop probe %s: status %d: %v", base, status, err)
			}
			tr.Record(name, 0, int64(i), start, end)
			if routedTurn && rep == direct {
				owned++
			}
		}
		n++
	}
	return float64(owned) / float64(max(1, n)), nil
}

// liveAffinity is the share of the live phase's keyed requests that the
// router sent to the key's ring owner (read from its replica header).
func liveAffinity(live []Sample, reqs []Request, ring *cluster.Ring, replicas []string) (float64, string) {
	n, owned := 0, 0
	for _, s := range live {
		r := reqs[s.Req]
		if !s.Sent || !keyed(r) {
			continue
		}
		n++
		if s.Replica == replicas[ring.Owner(r.Scs[0].Canonical())] {
			owned++
		}
	}
	return float64(owned) / float64(max(1, n)), fmt.Sprintf("n=%d live keyed requests answered by the ring owner", n)
}

// replay feeds the workload's generated inputs to each layer's public entry
// points in-process, one span per call. Results and errors are dropped: the replay
// only times the calls, and the answer check covers the values.
func replay(tr *Tracer, wl Workload, reqs []Request) {
	sample := reqs[len(reqs)-min(len(reqs), replayRequests):]
	var scs []scenario.Scenario
	seen := make(map[string]bool)
	for _, r := range sample {
		for _, sc := range r.Scs {
			if k := sc.Canonical(); !seen[k] {
				seen[k] = true
				scs = append(scs, sc)
			}
		}
	}

	// scenario: parse and key every scenario the sample carries.
	for i, r := range sample {
		for _, sc := range r.Scs {
			data := sc.JSON()
			tr.Time("scenario.parse", 0, int64(i), func() { _, _ = scenario.FromJSON(data) })
			tr.Time("scenario.canonical", 0, int64(i), func() { _ = sc.Canonical() })
		}
	}

	// memo: the live key stream through a cache of the daemon's capacity,
	// once to fill it and once more timing the hits.
	c := memo.New[any](cacheFlag(wl), 0)
	keys := memoKeys(reqs)
	for _, k := range keys {
		c.Do(k, func() (any, error) { return k, nil })
	}
	for i, k := range keys {
		start := time.Now()
		_, hit, _ := c.Do(k, func() (any, error) { return k, nil })
		if end := time.Now(); hit {
			tr.Record("memo.do_hit", 0, int64(i), start, end)
		}
	}

	// service: Engine.RTT cold then warm, the handler and the engine call
	// it wraps (warm), and the encoding of the result.
	eng := service.NewEngine(workers, 1<<20)
	h := service.NewServer("127.0.0.1:0", eng).Handler()
	for i, sc := range scs {
		tr.Time("service.engine_miss", 0, int64(i), func() { _, _, _ = eng.RTT(sc) })
		tr.Time("service.engine_hit", 0, int64(i), func() { _, _, _ = eng.RTT(sc) })
	}
	for i, r := range sample {
		serve(h, r) // warm every request first
		var out any
		tr.Time("service.engine_call", 0, int64(i), func() { out = engineCall(eng, r) })
		tr.Time("service.handler", 0, int64(i), func() { serve(h, r) })
		tr.Time("service.encode", 0, int64(i), func() { _, _ = json.Marshal(out) })
	}

	// cluster: ring lookups over the stream's keys.
	ring, _ := cluster.NewRing(ringNames([]string{"http://127.0.0.1:2"}), 0) // fixed valid names cannot fail
	for i, r := range reqs {
		if keyed(r) {
			k := r.Scs[0].Canonical()
			tr.Time("cluster.ring_owner", 0, int64(i), func() { _ = ring.Owner(k) })
		}
	}

	// queueing, core, mgf: cold pipeline stages per distinct scenario.
	for i, sc := range scs[:min(len(scs), replayScenarios)] {
		m := sc.Model()
		q, err := m.Downstream()
		if err != nil {
			continue
		}
		tr.Time("queueing.solve", 0, int64(i), func() { _, _ = q.Solve() })
		if sol, err := q.Solve(); err == nil {
			rho := m.DownlinkLoad()
			next := m.WithDownlinkLoad(math.Min(rho+0.02, 0.95))
			if q2, err := next.Downstream(); err == nil {
				tr.Time("queueing.solve_from", 0, int64(i), func() { _, _ = q2.SolveFrom(sol) })
			}
		}
		tr.Time("core.compile", 0, int64(i), func() { _, _ = m.Compile() })
		if cm, err := m.Compile(); err == nil {
			tr.Time("core.decompose", 0, int64(i), func() { _, _ = cm.Decompose() })
		}
		if cm, err := m.Compile(); err == nil {
			var x float64
			tr.Time("mgf.quantile", 0, int64(i), func() { x, _ = cm.Law().Quantile(m.QuantileLevel()) })
			law := cm.Law().Law()
			tr.Time("mgf.tail", 0, int64(i), func() { _ = law.Tail(x) })
		}
	}

	// core walks, dimensioning probes and runner fan-out per scenario base.
	grid := core.LoadGrid(0.05, 0.9, 0.05)
	for i, sc := range scs[:min(len(scs), replayWalks)] {
		base := sc
		base.Load = 0
		m := base.Model()
		path := m.NewLoadPath()
		for _, rho := range grid {
			var err error
			tr.Time("core.walk_point", 0, int64(i), func() { _, err = path.Point(rho) })
			if err != nil {
				break
			}
		}
		bound := 50.0
		for _, r := range sample {
			if r.Kind == "dimension" && r.Scs[0] == sc {
				bound = r.BoundMs
			}
		}
		dimPath := m.NewLoadPath()
		tr.Time("core.max_load", 0, int64(i), func() {
			_, _ = m.MaxLoadWith(bound/1000, func(rho float64) (float64, error) {
				tr.Record("core.probe", 0, int64(i), time.Now(), time.Now())
				pt, err := dimPath.Point(rho)
				return pt.RTT, err
			})
		})
		start := time.Now()
		var points []Span
		var mu sync.Mutex
		_, _ = m.SweepGridWith(grid, workers, func() func(rho float64) (core.SweepPoint, error) {
			p := m.NewLoadPath()
			return func(rho float64) (core.SweepPoint, error) {
				s := time.Now()
				pt, err := p.Point(rho)
				e := time.Now()
				mu.Lock()
				points = append(points, Span{Name: "runner.point", Req: int64(i), Start: s.Sub(tr.origin), End: e.Sub(tr.origin)})
				mu.Unlock()
				return pt, err
			}
		})
		sweepID := tr.Record("runner.sweep", 0, int64(i), start, time.Now())
		for _, p := range points {
			tr.Record(p.Name, sweepID, p.Req, tr.origin.Add(p.Start), tr.origin.Add(p.End))
		}
	}
}

// engineCall is the Engine method a request's handler wraps.
func engineCall(eng *service.Engine, r Request) any {
	switch r.Kind {
	case "rtt":
		res, _, _ := eng.RTT(r.Scs[0])
		return res
	case "batch":
		return eng.Batch(r.Scs)
	case "sweep":
		res, _, _ := eng.Sweep(r.Scs[0], r.From, r.To, r.Step)
		return res
	case "dimension":
		res, _, _ := eng.Dimension(r.Scs[0], r.BoundMs)
		return res
	}
	return nil
}

// memoKeys is the engine-level key stream the requests produce (the keys
// service.Engine memoizes client lookups under).
func memoKeys(reqs []Request) []string {
	var out []string
	for _, r := range reqs {
		switch r.Kind {
		case "rtt", "batch":
			for _, sc := range r.Scs {
				out = append(out, "rtt|"+sc.Canonical())
			}
		case "sweep":
			out = append(out, fmt.Sprintf("sweep|%s|%g|%g|%g", r.Scs[0].Canonical(), r.From, r.To, r.Step))
		case "dimension":
			out = append(out, fmt.Sprintf("dim|%s|%g", r.Scs[0].Canonical(), r.BoundMs))
		}
	}
	return out
}

// cacheFlag reads the -cache value from the workload's daemon flags.
func cacheFlag(wl Workload) int {
	for i := 0; i+1 < len(wl.DaemonFlags); i++ {
		if wl.DaemonFlags[i] == "-cache" {
			var n int
			if _, err := fmt.Sscan(wl.DaemonFlags[i+1], &n); err == nil {
				return n
			}
		}
	}
	return service.DefaultCacheSize
}

// sweepEfficiency is the summed runner.point time over (sweep wall time x
// workers), across all traced sweeps.
func sweepEfficiency(spans []Span) float64 {
	var points, walls time.Duration
	for _, s := range spans {
		switch s.Name {
		case "runner.point":
			points += s.End - s.Start
		case "runner.sweep":
			walls += s.End - s.Start
		}
	}
	if walls == 0 {
		return 0
	}
	return float64(points) / (float64(walls) * workers)
}
