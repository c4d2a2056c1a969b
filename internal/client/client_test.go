package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// newPair boots a service handler behind httptest and a client pointed at
// it: the full wire path (encode, route, decode) without a real socket
// lifecycle.
func newPair(t *testing.T) (*Client, *service.Engine) {
	t.Helper()
	engine := service.NewEngine(2, 0)
	ts := httptest.NewServer(service.NewServer("127.0.0.1:0", engine).Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, engine
}

func TestNewRejectsBadBaseURLs(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:7900", "ftp://host", "http://", "::", "http//x"} {
		if _, err := New(bad); err == nil {
			t.Errorf("base URL %q accepted", bad)
		}
	}
	c, err := New("http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://example.com" {
		t.Errorf("base not normalized: %q", c.base)
	}
}

func TestRTTRoundTripAndCacheBool(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	sc := scenario.Default()
	sc.Load = 0.5

	cold, cached, err := c.RTT(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first request reported cached")
	}
	if !(cold.QuantileMs > 0) || cold.DownlinkLoad != 0.5 || cold.Scenario != sc {
		t.Errorf("implausible result: %+v", cold)
	}
	warm, cached, err := c.RTT(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical repeat not reported cached")
	}
	if warm != cold {
		t.Errorf("cached result differs:\n%+v\n%+v", warm, cold)
	}
}

func TestBatchSweepDimensionModelsHealth(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	sc := scenario.Default()

	a, b := sc, sc
	a.Load, b.Load = 0.3, 0.5
	batch, err := c.Batch(ctx, []scenario.Scenario{a, b, a})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 || batch.Cached != 1 {
		t.Errorf("batch = %d results, %d cached", len(batch.Results), batch.Cached)
	}
	for i, item := range batch.Results {
		if item.Error != "" || item.Result == nil {
			t.Errorf("batch item %d: %+v", i, item)
		}
	}

	sweep, cached, err := c.Sweep(ctx, sc, 0.1, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if cached || len(sweep.Points) != 5 {
		t.Errorf("sweep: cached=%v points=%d", cached, len(sweep.Points))
	}

	dim, _, err := c.Dimension(ctx, sc, 50)
	if err != nil {
		t.Fatal(err)
	}
	if dim.MaxGamers < 1 || dim.BoundMs != 50 {
		t.Errorf("dimension: %+v", dim)
	}

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) < 3 {
		t.Errorf("only %d traffic models", len(models.Models))
	}

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Computations == 0 {
		t.Errorf("health: %+v", health)
	}
}

func TestAPIErrorStatuses(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()

	bad := scenario.Default()
	bad.Gamers = 0
	_, _, err := c.RTT(ctx, bad)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid scenario: %v", err)
	}
	if apiErr.Message == "" {
		t.Error("error envelope message lost")
	}

	unstable := scenario.Default()
	unstable.Load = 1.5
	_, _, err = c.RTT(ctx, unstable)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unstable scenario: %v", err)
	}
}

func TestMetricsSnapshotAndHitRatioDelta(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	sc := scenario.Default()
	sc.Load = 0.4

	if _, _, err := c.RTT(ctx, sc); err != nil {
		t.Fatal(err)
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.RTT(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	es := after.Endpoints["/v1/rtt"]
	if es.Requests != 4 || es.CacheHits != 3 || es.LatencyCount != 4 {
		t.Errorf("rtt endpoint metrics: %+v", es)
	}
	if len(es.Quantiles) != 3 {
		t.Errorf("expected 3 latency quantiles, got %v", es.Quantiles)
	}
	if after.UptimeSeconds < 0 {
		t.Errorf("uptime %g", after.UptimeSeconds)
	}
	// The unlabeled global aggregate covers the same four requests (no other
	// endpoint was touched) with its own latency tracker.
	if after.Global.Requests != 4 || after.Global.CacheHits != 3 || after.Global.LatencyCount != 4 {
		t.Errorf("global metrics: %+v", after.Global)
	}
	if len(after.Global.Quantiles) != 3 {
		t.Errorf("expected 3 global latency quantiles, got %v", after.Global.Quantiles)
	}
	// Cache gauges: one rtt| and one pt| entry, and lookup counters
	// covering all four probes.
	if after.Cache.Entries != 2 {
		t.Errorf("cache gauges: %+v", after.Cache)
	}
	if after.Cache.LookupHits+after.Cache.LookupMisses != 4 {
		t.Errorf("lookup counters %d+%d, want 4 probes", after.Cache.LookupHits, after.Cache.LookupMisses)
	}
	// Every request between the snapshots was a hit.
	ratio, ok := CacheHitRatioDelta(before, after)
	if !ok || ratio != 1 {
		t.Errorf("hit ratio delta = %g, %v", ratio, ok)
	}
	if ratio, ok := CacheHitRatioDelta(MetricsSnapshot{}, after); !ok || ratio != 0.75 {
		t.Errorf("cumulative hit ratio = %g, %v", ratio, ok)
	}
	if _, ok := CacheHitRatioDelta(after, after); ok {
		t.Error("no-traffic delta should report not-ok")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := ParseMetrics([]byte("what even is this")); err == nil {
		t.Error("garbage accepted")
	}
	snap, err := ParseMetrics([]byte("# just a comment\n\nsome_other_metric 42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Endpoints) != 0 {
		t.Errorf("unexpected endpoints: %+v", snap.Endpoints)
	}
}

func TestContextCancellation(t *testing.T) {
	c, _ := newPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.RTT(ctx, scenario.Default()); err == nil {
		t.Error("canceled context did not fail")
	}
}

func TestWaitReady(t *testing.T) {
	c, _ := newPair(t)
	if err := c.WaitReady(context.Background(), 2*time.Second); err != nil {
		t.Error(err)
	}
	down, err := New("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := down.WaitReady(context.Background(), 200*time.Millisecond); err == nil {
		t.Error("unreachable daemon reported ready")
	}
}

// TestWaitReadyRequiresReady checks a reachable-but-draining daemon keeps
// WaitReady waiting: alive is not the same as ready.
func TestWaitReadyRequiresReady(t *testing.T) {
	engine := service.NewEngine(1, 0)
	srv := service.NewServer("127.0.0.1:0", engine)
	srv.BeginDrain()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = c.WaitReady(context.Background(), 200*time.Millisecond)
	if err == nil {
		t.Fatal("draining daemon reported ready")
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Errorf("error should name the draining status: %v", err)
	}
}

func TestDoGenericQueryPath(t *testing.T) {
	c, _ := newPair(t)
	var res service.RTTResult
	h, err := c.Do(context.Background(), http.MethodGet, "/v1/rtt?load=0.5", nil, &res)
	if err != nil {
		t.Fatal(err)
	}
	if h.Get(service.CacheHeader) == "" {
		t.Error("cache header missing")
	}
	if res.DownlinkLoad != 0.5 {
		t.Errorf("decoded %+v", res)
	}
}

// TestOverCapResponseIsAnError: a JSON answer or a /metrics page longer
// than the response cap is an error naming the cap, never a silently
// truncated answer or a partial snapshot.
func TestOverCapResponseIsAnError(t *testing.T) {
	old := MaxResponseBytes
	MaxResponseBytes = 1024
	t.Cleanup(func() { MaxResponseBytes = old })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			// Comment lines parse at any cut, so a truncated page would
			// pass as an empty snapshot.
			w.Write([]byte(strings.Repeat("# padding\n", 200)))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","pad":"` + strings.Repeat("x", 2000) + `"}`))
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, jsonErr := c.Health(ctx)
	_, metricsErr := c.Metrics(ctx)
	for name, err := range map[string]error{"JSON": jsonErr, "/metrics": metricsErr} {
		if err == nil || !strings.Contains(err.Error(), "1024-byte cap") {
			t.Errorf("over-cap %s response: err = %v, want one naming the 1024-byte cap", name, err)
		}
	}
}
