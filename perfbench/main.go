// Command perfbench is the repository's end-to-end benchmark: it boots the
// real fpspingd (and, for routed-zipf, fpsrouter) processes on loopback,
// drives one workload open-loop at fixed Poisson rates, checks every answer
// bit for bit against an in-process reference, and prints the metrics named
// in BENCHMARK.json. Run it from the repository root through run.sh:
//
//	sh perfbench/run.sh --workload cached-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it makes the separate traced run that prints the
// per-layer breakdown instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setups is how many times a run boots and warms its deployment; setup_s
// is their median.
const setups = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	bin      string
	out      string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (see perfbench/workloads.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the fpspingd and fpsrouter binaries")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for server logs and trace files")
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	wl, err := cfg.workload(o.workload)
	if err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>", err)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *Result
	if o.trace == 1 {
		res, err = traced(ctx, o, wl)
	} else {
		res, err = endToEnd(ctx, o, wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answer check failed")
		return 1
	}
	return 0
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's outcome; print writes the report lines and the final
// JSON line.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	names     []string
	metrics   map[string]Metric
	notes     map[string]string
	extra     map[string]bool // report lines that are not in the JSON metrics
}

func newResult() *Result {
	return &Result{metrics: make(map[string]Metric), notes: make(map[string]string), extra: make(map[string]bool)}
}

// add records a metric with the note printed beside it (sample count,
// definition).
func (r *Result) add(name string, value float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = Metric{value, unit}
	r.notes[name] = note
}

// report records a line printed in the report but kept out of the JSON
// metrics: validity checks, and the latencies, which BENCHMARK.json does not
// gate because a shared host moves them by more than any allowed bound
// (see README.md).
func (r *Result) report(name string, value float64, unit, note string) {
	r.add(name, value, unit, note)
	r.extra[name] = true
}

func (r *Result) print(f *os.File) {
	metrics := make(map[string]Metric)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-30s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
		if !r.extra[n] {
			metrics[n] = m
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}) // plain values cannot fail to encode
	fmt.Fprintln(f, string(line))
}

// setUp boots the deployment and runs the warmup pass; the returned
// duration is the setup time.
func setUp(ctx context.Context, o options, wl Workload, g *Gen, tag string) (*Deployment, []Sample, time.Duration, error) {
	t0 := time.Now()
	d, err := startDeployment(ctx, o.bin, o.out, wl, tag)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := g.Warmup()
	clients := newClients()
	defer closeClients(clients)
	// The warmup pass runs closed-loop: every request is due at once.
	ph := runOpenLoop(ctx, clients, d.Target, warm, make([]time.Duration, len(warm)), nil)
	return d, ph.Samples, time.Since(t0), nil
}

func logDir(o options, wl Workload) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d", wl.Name, o.seed))
}
