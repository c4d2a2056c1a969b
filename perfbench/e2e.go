package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// endToEnd is the untraced run: setup_s over several boots, latency, CPU
// and memory at the nominal rate.
func endToEnd(ctx context.Context, o options, wl Workload) (*Result, error) {
	g := newGen(wl, o.seed)
	dir := logDir(o, wl)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o.out = dir
	var setupS []float64
	var dep *Deployment
	defer func() { dep.Stop() }()
	var warm []Sample
	for s := range setups {
		d, ws, dt, err := setUp(ctx, o, wl, g, fmt.Sprintf("setup%d", s))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, dt.Seconds())
		if s < setups-1 {
			d.Stop()
			continue
		}
		dep, warm = d, ws
	}

	clients := newClients()
	defer closeClients(clients)
	dur := time.Duration(o.seconds) * time.Second
	nomSched := g.Schedule(streamNominal, wl.NominalRPS, dur)
	nomReqs := requests(g, streamNominal, len(nomSched))
	cpu0, err := dep.CPU(false)
	if err != nil {
		return nil, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	nom := runOpenLoop(ctx, clients, dep.Target, nomReqs, nomSched, nil)
	cpu1, err := dep.CPU(false)
	if err != nil {
		return nil, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	rss, err := dep.PeakRSS()
	if err != nil {
		return nil, err
	}
	dep.Stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Answer check, outside every timed window.
	ref := newReference()
	ref.Compute(g.Warmup())
	ref.Compute(nomReqs)
	res := newResult()
	warmFailed := countFailed(ref, g.Warmup(), warm)
	for _, s := range nom.sent() {
		res.Attempted++
		if !ref.Check(nomReqs[s.Req], s.Status, s.Body) {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && warmFailed == 0

	n := len(nom.sent())
	w50 := windows(nom, 8, 20)
	w90 := windows(nom, 8, 100)
	w99, p99Note := windows(nom, 8, 1000), "each with >=10 samples beyond"
	if w99 == nil {
		w99, p99Note = windows(nom, 1, 0), "too few samples for p99 (1000 needed)"
	}
	res.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d boots+warmups %.3g", len(setupS), setupS))
	res.report("latency_p50_ms", windowMedian(w50, 5000), "ms",
		fmt.Sprintf("n=%d at %g/s from scheduled send; median of %d windows' p50", n, wl.NominalRPS, len(w50)))
	res.report("latency_p90_ms", windowMedian(w90, 9000), "ms",
		fmt.Sprintf("n=%d; median of %d windows' p90, each with >=10 samples beyond", n, len(w90)))
	res.report("latency_p99_ms", windowMedian(w99, 9900), "ms",
		fmt.Sprintf("n=%d; median of %d windows' p99, %s", n, len(w99), p99Note))
	res.add("server_cpu_ms_per_op", float64(cpu1-cpu0)/1e6/float64(n), "ms", fmt.Sprintf("n=%d, %d server process(es)", n, len(dep.procs)))
	res.add("server_peak_rss_mb", float64(rss)/(1<<20), "MB", "summed VmHWM after the nominal phase")
	res.report("failed_share", float64(res.Failed)/float64(res.Attempted), "share",
		fmt.Sprintf("%d of %d attempted (warmup failures %d)", res.Failed, res.Attempted, warmFailed))
	lags := nom.sendLags()
	res.report("bench.send_lag_p99_ms", quantile(lags, tailLevel(len(lags))), "ms",
		fmt.Sprintf("n=%d generator timer lateness", len(lags)))
	res.report("bench.host_steal_share", steal1.minus(steal0).share(), "share",
		"CPU time the hypervisor gave to other guests during the nominal phase (/proc/stat)")
	res.report("bench.backlog_trend", nom.backlogTrend(), "1/s", "least-squares backlog slope at the nominal rate")
	return res, nil
}

// windows splits the phase's latencies (ms) by scheduled send time into the
// most equal-length windows, at most maxW, that each hold at least minN
// samples; nil if even one window holds fewer.
func windows(ph *Phase, maxW, minN int) [][]float64 {
	span := time.Duration(0)
	for _, s := range ph.Samples {
		span = max(span, s.Sched)
	}
	span++
	for w := maxW; w >= 1; w-- {
		out := make([][]float64, w)
		for _, s := range ph.Samples {
			if s.Sent {
				k := int(int64(s.Sched) * int64(w) / int64(span))
				out[k] = append(out[k], s.LatencyMs())
			}
		}
		ok := true
		for k := range out {
			out[k] = sortedCopy(out[k])
			ok = ok && len(out[k]) >= minN
		}
		if ok {
			return out
		}
	}
	return nil
}

// windowMedian is the median over windows of each window's level-bp
// latency.
func windowMedian(ws [][]float64, bp int) float64 {
	qs := make([]float64, len(ws))
	for i, w := range ws {
		qs[i] = quantile(w, bp)
	}
	return median(qs)
}

func requests(g *Gen, stream uint64, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Request(stream, i)
	}
	return out
}

// countFailed checks a closed-loop pass against the reference.
func countFailed(ref *Reference, reqs []Request, samples []Sample) int {
	n := 0
	for i, s := range samples {
		if !s.Sent || !ref.Check(reqs[i], s.Status, s.Body) {
			n++
		}
	}
	return n
}
