package experiments

import (
	"fmt"
	"strings"

	"fpsping/internal/core"
	"fpsping/internal/dist"
	"fpsping/internal/netsim"
	"fpsping/internal/runner"
)

// MultiServerRow is one server-count's prediction.
type MultiServerRow struct {
	Servers       int
	PerServer     float64
	QuantileMilli float64
	MeanMilli     float64
}

// MultiServerResult explores §3.2's multi-server remark: the same total
// gamer population and aggregate load split across S game servers, with the
// downstream queue moving from D/E_K/1 (S=1) to the M/E_K/1 superposition
// limit (S>1).
type MultiServerResult struct {
	TotalGamers   float64
	AggregateLoad float64
	Rows          []MultiServerRow
}

// Render formats the table.
func (m MultiServerResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total gamers %.0f, aggregate downstream load %.1f%% (PS=125B, T=60ms, K=9)\n",
		m.TotalGamers, 100*m.AggregateLoad)
	fmt.Fprintf(&b, "%-9s %12s %14s %14s\n", "servers", "gamers/srv", "99.999% RTT", "mean RTT")
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-9d %12.0f %12.1fms %12.2fms\n",
			r.Servers, r.PerServer, r.QuantileMilli, r.MeanMilli)
	}
	b.WriteString("S=1 uses the paper's D/E_K/1; S>1 uses the M/E_K/1 Poisson superposition limit,\n")
	b.WriteString("which is conservative for small S (the paper: valid 'if the number of servers is high enough').\n")
	return section("§3.2 extension - several game servers on one pipe", b.String())
}

// MultiServerStudy evaluates S in {1, 2, 4, 8, 16} at a fixed aggregate, one
// concurrent job per server count.
func MultiServerStudy(jobs int) (MultiServerResult, error) {
	const total = 160.0
	out := MultiServerResult{TotalGamers: total}
	type cell struct {
		row  MultiServerRow
		load float64 // aggregate load, reported by the S=1 baseline
	}
	cells, err := runner.Items([]int{1, 2, 4, 8, 16}, runner.Options{Workers: jobs},
		func(_, servers int) (cell, error) {
			per := core.DSLDefaults()
			per.ServerPacketBytes = 125
			per.BurstInterval = 0.060
			per.ErlangOrder = 9
			per.Gamers = total / float64(servers)

			// Each row compiles its delay law once; quantile and mean are
			// evaluations over the compiled pipeline, not separate rebuilds.
			// S = 1 is the paper's own D/E_K/1 scenario.
			var c cell
			compile := core.MultiServer{PerServer: per, Servers: servers}.Compile
			if servers == 1 {
				compile = per.Compile
				c.load = per.DownlinkLoad()
			}
			cm, err := compile()
			if err != nil {
				return c, err
			}
			q, err := cm.RTTQuantile()
			if err != nil {
				return c, err
			}
			c.row = MultiServerRow{
				Servers:       servers,
				PerServer:     per.Gamers,
				QuantileMilli: 1000 * q,
				MeanMilli:     1000 * cm.MeanRTT(),
			}
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for _, c := range cells {
		out.Rows = append(out.Rows, c.row)
		if c.load > 0 {
			out.AggregateLoad = c.load
		}
	}
	return out, nil
}

// JitterRow is one injected-jitter level's measured effect.
type JitterRow struct {
	// JitterMeanMilli is the mean of the injected uniform jitter.
	JitterMeanMilli float64
	// MeanRTTMilli and P99Milli are the simulated ping statistics.
	MeanRTTMilli, P99Milli float64
}

// JitterResult replays the flavor of the paper's source experiment [23]
// (Quax et al.): artificial jitter injected on the downstream path of an
// otherwise healthy scenario, and its effect on the ping distribution. The
// per-level mean shift should track the injected mean.
type JitterResult struct {
	Rows []JitterRow
}

// Render formats the study.
func (j JitterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s\n", "jitter mean", "mean RTT", "p99 RTT")
	for _, r := range j.Rows {
		fmt.Fprintf(&b, "%13.1fms %12.2fms %12.2fms\n",
			r.JitterMeanMilli, r.MeanRTTMilli, r.P99Milli)
	}
	b.WriteString("mean RTT rises one-for-one with the injected jitter mean ([23]'s setup;\n")
	b.WriteString("the paper only uses the low-jitter runs of that trace for Table 3).\n")
	return section("[23] replication - injected downstream jitter vs ping", b.String())
}

// jitterReplicas is the fixed per-level replication grid: each jitter level's
// statistics pool this many independent sub-simulations, so the study is
// byte-identical at any worker count.
const jitterReplicas = 3

// JitterStudy simulates jitter levels 0/2/5/10 ms (uniform, mean values).
// Every (level, replica) pair is an independent job; replica r uses the same
// derived seed at every level (common random numbers, preserving the
// monotone level comparison) and each level merges its replicas' delay
// populations.
func JitterStudy(seed uint64, duration float64, jobs int) (JitterResult, error) {
	var out JitterResult
	levels := []float64{0, 2, 5, 10}
	sub := duration / jitterReplicas
	runs, err := runner.Map(len(levels)*jitterReplicas, runner.Options{Workers: jobs},
		func(job int) (*netsim.Results, error) {
			meanMs := levels[job/jitterReplicas]
			rep := job % jitterReplicas
			erl, err := dist.ErlangByMean(9, 30*125)
			if err != nil {
				return nil, err
			}
			cfg := netsim.Config{
				Gamers:       30,
				ClientSize:   dist.NewDeterministic(80),
				ClientIAT:    dist.NewDeterministic(0.060),
				BurstTotal:   erl,
				BurstIAT:     dist.NewDeterministic(0.060),
				UpRate:       128_000,
				DownRate:     1_024_000,
				AggRate:      5_000_000,
				ShuffleBurst: true,
			}
			if meanMs > 0 {
				u, err := dist.NewUniform(0, 2*meanMs/1000)
				if err != nil {
					return nil, err
				}
				cfg.DownJitter = u
			}
			s, err := netsim.NewScenario(cfg, dist.SplitSeed(seed, expJitter, uint64(rep)))
			if err != nil {
				return nil, err
			}
			return s.Run(sub)
		})
	if err != nil {
		return out, err
	}
	for li, meanMs := range levels {
		pooled := runs[li*jitterReplicas].RTT
		for rep := 1; rep < jitterReplicas; rep++ {
			pooled.Merge(runs[li*jitterReplicas+rep].RTT)
		}
		p99, err := pooled.Quantile(0.99)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, JitterRow{
			JitterMeanMilli: meanMs,
			MeanRTTMilli:    1000 * pooled.Summary.Mean(),
			P99Milli:        1000 * p99,
		})
	}
	return out, nil
}
