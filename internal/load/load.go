package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/stats"
)

// Config parameterizes one load run. Zero values mean defaults throughout,
// so Config{Addr: ..., Mix: MixHot, Count: 1000} is a complete run.
type Config struct {
	// Addr is the daemon base URL ("http://127.0.0.1:7900"). Ignored when
	// Client is set. Against a cluster, point Addr at the fpsrouter — its
	// /metrics speak the same dialect, so every gate works unchanged.
	Addr string
	// Client overrides the client (tests point it at an httptest server).
	Client *client.Client
	// ReplicaAddrs, when set, are the individual fpspingd replicas behind a
	// routed target: each is scraped before and after the measured phase and
	// reported per replica, showing where the cluster's work landed.
	ReplicaAddrs []string
	// Jobs is the number of concurrent closed-loop workers (<= 0 means 4).
	Jobs int
	// Seed drives every scenario draw; same seed, same request multiset.
	Seed uint64
	// Mix selects the scenario-drawing strategy (defaults to MixHot).
	Mix Mix
	// PoolSize, ZipfSkew, BatchSize and Weights parameterize the generator
	// (see GeneratorConfig).
	PoolSize  int
	ZipfSkew  float64
	BatchSize int
	Weights   Weights
	// WarmupPasses runs the generator's deterministic warmup pass this many
	// times before measuring (< 0 means none; 0 means 1). Warmup requests
	// are excluded from every measured statistic, including the cache-hit
	// ratio, which therefore reports the steady state.
	WarmupPasses int
	// Count runs exactly this many measured operations. When 0, the run is
	// time-bounded by Duration instead.
	Count int
	// Duration bounds a time-based run (Count == 0; <= 0 means 10s).
	Duration time.Duration
	// RequestTimeout bounds one request (<= 0 means client.DefaultTimeout).
	RequestTimeout time.Duration
	// OnOp, when set, observes every measured operation before it executes
	// (concurrently — the callback must be safe). Tests use it to pin the
	// issued multiset.
	OnOp func(index int, op Op)
}

// normalize fills defaults in place.
func (c *Config) normalize() {
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.Mix == "" {
		c.Mix = MixHot
	}
	if c.WarmupPasses == 0 {
		c.WarmupPasses = 1
	}
	if c.Count <= 0 && c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = client.DefaultTimeout
	}
}

// recorder aggregates measured observations under one lock. A closed-loop
// HTTP round trip costs orders of magnitude more than this critical
// section, so a single mutex does not serialize the run.
type recorder struct {
	mu          sync.Mutex
	latency     stats.Summary // seconds
	quantiles   map[string]*stats.PQuantile
	perEndpoint map[OpKind]*endpointAgg
	status      map[int]int
	errs        int
	fingerprint uint64
}

type endpointAgg struct {
	count     int
	errs      int
	latency   stats.Summary
	quantiles map[string]*stats.PQuantile
}

// reportLevels are the latency quantiles a load report prints.
var reportLevels = []string{"0.5", "0.9", "0.95", "0.99"}

// endpointLevels are the per-endpoint quantiles (the report's breakdown
// keeps to the three headline levels).
var endpointLevels = []string{"0.5", "0.9", "0.99"}

// newQuantiles builds one P² estimator per level.
func newQuantiles(levels []string) map[string]*stats.PQuantile {
	qs := make(map[string]*stats.PQuantile, len(levels))
	for _, level := range levels {
		var p float64
		fmt.Sscanf(level, "%g", &p)
		pq, err := stats.NewPQuantile(p)
		if err != nil {
			panic("load: bad report level " + level)
		}
		qs[level] = pq
	}
	return qs
}

func newRecorder() *recorder {
	return &recorder{
		quantiles:   newQuantiles(reportLevels),
		perEndpoint: make(map[OpKind]*endpointAgg),
		status:      make(map[int]int),
	}
}

// observe folds one measured operation into the aggregates.
func (r *recorder) observe(op Op, elapsed time.Duration, status int, err error) {
	sec := elapsed.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fingerprint += op.hash() // wrapping sum: order-independent
	r.latency.Add(sec)
	for _, pq := range r.quantiles {
		pq.Add(sec)
	}
	agg := r.perEndpoint[op.Kind]
	if agg == nil {
		agg = &endpointAgg{quantiles: newQuantiles(endpointLevels)}
		r.perEndpoint[op.Kind] = agg
	}
	agg.count++
	agg.latency.Add(sec)
	for _, pq := range agg.quantiles {
		pq.Add(sec)
	}
	r.status[status]++
	if err != nil {
		r.errs++
		agg.errs++
	}
}

// execute drives one operation through the client, reporting the HTTP
// status (0 for transport errors, 200 for success) and any failure. A batch
// whose items contain errors fails the operation: the generator only emits
// valid scenarios, so any item error is a real defect.
func execute(ctx context.Context, cli *client.Client, op Op) (status int, err error) {
	switch op.Kind {
	case OpRTT:
		_, _, err = cli.RTT(ctx, op.Scenarios[0])
	case OpBatch:
		batch, berr := cli.Batch(ctx, op.Scenarios)
		err = berr
		if err == nil {
			for i, item := range batch.Results {
				if item.Error != "" {
					err = fmt.Errorf("load: batch item %d: %s", i, item.Error)
					break
				}
			}
		}
	case OpSweep:
		_, _, err = cli.Sweep(ctx, op.Scenarios[0], op.From, op.To, op.Step)
	case OpDimension:
		_, _, err = cli.Dimension(ctx, op.Scenarios[0], op.BoundMs)
	case OpModels:
		_, err = cli.Models(ctx)
	default:
		err = fmt.Errorf("load: unknown op kind %d", op.Kind)
	}
	if err == nil {
		return 200, nil
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode, err
	}
	return 0, err
}

// runPhase executes ops [start, start+count) (or until deadline/ctx when
// count < 0) over jobs closed-loop workers pulling indices from a shared
// counter, and returns how many operations ran. op(i) must be safe for
// concurrent use.
func runPhase(ctx context.Context, jobs int, start, count int, deadline time.Time,
	op func(i int) error) int {
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if count >= 0 && i >= start+count {
					return
				}
				_ = op(i)
			}
		}()
	}
	wg.Wait()
	done := int(next.Load()) - start
	if count >= 0 && done > count {
		done = count
	}
	return done
}

// Run executes one load run and returns its report. The daemon must be
// reachable (use client.WaitReady first when racing a boot).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.normalize()
	gen, err := NewGenerator(GeneratorConfig{
		Seed: cfg.Seed, Mix: cfg.Mix, PoolSize: cfg.PoolSize,
		ZipfSkew: cfg.ZipfSkew, BatchSize: cfg.BatchSize, Weights: cfg.Weights,
	})
	if err != nil {
		return nil, err
	}
	cli := cfg.Client
	if cli == nil {
		if cli, err = client.New(cfg.Addr, client.WithTimeout(cfg.RequestTimeout)); err != nil {
			return nil, err
		}
	}
	if _, err := cli.Health(ctx); err != nil {
		return nil, fmt.Errorf("load: daemon not reachable: %w", err)
	}

	rep := &Report{
		Mix: string(cfg.Mix), Seed: cfg.Seed, Jobs: cfg.Jobs,
		Pool: len(gen.Pool()), Endpoints: make(map[string]EndpointReport),
		StatusCounts: make(map[string]int),
	}

	// Warmup: the deterministic full pass over the mix's key space, errors
	// counted but not measured.
	warmup := gen.WarmupOps()
	var warmupErrs atomic.Int64
	for pass := 0; pass < cfg.WarmupPasses; pass++ {
		runPhase(ctx, cfg.Jobs, 0, len(warmup), time.Time{}, func(i int) error {
			if _, err := execute(ctx, cli, warmup[i]); err != nil {
				warmupErrs.Add(1)
			}
			return nil
		})
		rep.WarmupOps += len(warmup)
	}
	rep.WarmupErrors = int(warmupErrs.Load())
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	before, err := cli.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: pre-run metrics scrape: %w", err)
	}
	replicas, err := newReplicaProbes(cfg.ReplicaAddrs, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range replicas {
		if err := p.scrape(ctx); err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	count := cfg.Count
	var deadline time.Time
	if count <= 0 {
		count = -1
		deadline = time.Now().Add(cfg.Duration)
	}
	start := time.Now()
	executed := runPhase(ctx, cfg.Jobs, 0, count, deadline, func(i int) error {
		op := gen.Op(i)
		if cfg.OnOp != nil {
			cfg.OnOp(i, op)
		}
		t0 := time.Now()
		status, err := execute(ctx, cli, op)
		rec.observe(op, time.Since(t0), status, err)
		return err
	})
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil && executed == 0 {
		return nil, err
	}

	// A mid-run interrupt must still yield a report for the work already
	// measured, so the final scrape gets its own brief context when the
	// run's was canceled.
	scrapeCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		scrapeCtx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
	}
	after, err := cli.Metrics(scrapeCtx)
	if err != nil {
		return nil, fmt.Errorf("load: post-run metrics scrape: %w", err)
	}
	for _, p := range replicas {
		rr, err := p.delta(scrapeCtx)
		if err != nil {
			return nil, err
		}
		rep.Replicas = append(rep.Replicas, rr)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	rep.Requests = executed
	rep.Errors = rec.errs
	rep.ElapsedSeconds = elapsed.Seconds()
	if rep.ElapsedSeconds > 0 {
		rep.AchievedRPS = float64(executed) / rep.ElapsedSeconds
	}
	rep.Latency = LatencyReport{
		MeanMs: 1000 * rec.latency.Mean(),
		MaxMs:  1000 * rec.latency.Max(),
		P50Ms:  1000 * rec.quantiles["0.5"].Value(),
		P90Ms:  1000 * rec.quantiles["0.9"].Value(),
		P95Ms:  1000 * rec.quantiles["0.95"].Value(),
		P99Ms:  1000 * rec.quantiles["0.99"].Value(),
	}
	for kind, agg := range rec.perEndpoint {
		rep.Endpoints[kind.String()] = EndpointReport{
			Requests: agg.count,
			Errors:   agg.errs,
			MeanMs:   1000 * agg.latency.Mean(),
			P50Ms:    1000 * agg.quantiles["0.5"].Value(),
			P90Ms:    1000 * agg.quantiles["0.9"].Value(),
			P99Ms:    1000 * agg.quantiles["0.99"].Value(),
		}
	}
	for status, n := range rec.status {
		key := "transport"
		if status > 0 {
			key = fmt.Sprintf("%d", status)
		}
		rep.StatusCounts[key] = n
	}
	rep.Fingerprint = fmt.Sprintf("%016x", rec.fingerprint)

	reqB, _, hitB := before.Totals()
	reqA, _, hitA := after.Totals()
	rep.Cache = CacheReport{
		RequestsBefore: reqB, HitsBefore: hitB,
		RequestsAfter: reqA, HitsAfter: hitA,
		EntriesAfter:   after.Cache.Entries,
		EvictionsAfter: after.Cache.Evictions,
	}
	if ratio, ok := client.CacheHitRatioDelta(before, after); ok {
		rep.Cache.HitRatio = ratio
		rep.Cache.Valid = true
	}
	return rep, nil
}
