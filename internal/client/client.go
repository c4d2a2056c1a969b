// Package client is the typed Go client for fpspingd: one method per
// endpoint (RTT, Batch, Sweep, Dimension, Models, Health, Metrics) plus the
// generic Do primitive they are built on. Requests and responses are the
// daemon's own wire types — scenario.Scenario going out, the service
// package's result structs coming back — so client and server cannot drift
// apart, and a value that round-trips through the daemon is the value the
// engine computed.
//
// A Client is safe for concurrent use and reuses connections: the default
// transport keeps enough idle keep-alive connections per host for a load
// generator's worth of goroutines to hammer one daemon without handshake
// churn. Every method takes a context and honors its cancellation.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

// DefaultTimeout bounds one request (dial + send + full response) unless
// WithTimeout overrides it. Cold dimensioning searches run many quantile
// inversions, so the default is generous.
const DefaultTimeout = 60 * time.Second

// maxResponseBytes bounds response bodies read into memory; the largest
// legitimate response (a few thousand batch items) stays far below it.
const maxResponseBytes = 64 << 20

// Client talks to one fpspingd base URL.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client at construction.
type Option func(*Client)

// WithTimeout sets the per-request timeout (0 means no timeout beyond the
// context's).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.hc.Timeout = d } }

// newTransport returns the connection-reusing default transport: generous
// idle pools per host so N concurrent workers multiplex over warm
// keep-alive connections instead of redialing.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:7900").
func New(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: base URL %q: %w", base, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)://host[:port]", base)
	}
	c := &Client{
		base: strings.TrimRight(u.String(), "/"),
		hc:   &http.Client{Transport: newTransport(), Timeout: DefaultTimeout},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// APIError is a non-2xx daemon answer, carrying the HTTP status and the
// daemon's error envelope message. 400s are malformed requests, 422s are
// valid questions with a negative answer (an unstable scenario).
type APIError struct {
	StatusCode int
	Message    string
}

// Error formats "fpspingd: message (HTTP 400)".
func (e *APIError) Error() string {
	return fmt.Sprintf("fpspingd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// raw performs one request and returns the response body and header.
// Non-2xx statuses decode the daemon's error envelope into an *APIError.
func (c *Client) raw(ctx context.Context, method, path string, body any) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "application/json")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, resp.Header, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		var envelope struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return data, resp.Header, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	return data, resp.Header, nil
}

// Do performs one JSON request against path ("/v1/rtt", query strings
// allowed): body is JSON-encoded when non-nil, a 2xx response is decoded
// into out when non-nil, and a non-2xx response becomes an *APIError. The
// response header is returned either way so callers can read CacheHeader.
// The typed endpoint methods below are Do with the wire types filled in.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) (http.Header, error) {
	data, header, err := c.raw(ctx, method, path, body)
	if err != nil {
		return header, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return header, fmt.Errorf("client: decoding %s response: %w", path, err)
		}
	}
	return header, nil
}

// cachedHeader reads the daemon's cache disposition from a response header.
func cachedHeader(h http.Header) bool {
	return h != nil && h.Get(service.CacheHeader) == "hit"
}

// RTT evaluates one scenario (POST /v1/rtt). The bool mirrors the daemon's
// cache header: whether the answer came from the engine cache (or a joined
// in-flight computation) rather than a fresh computation.
func (c *Client) RTT(ctx context.Context, sc scenario.Scenario) (service.RTTResult, bool, error) {
	var res service.RTTResult
	h, err := c.Do(ctx, http.MethodPost, "/v1/rtt", sc, &res)
	return res, cachedHeader(h), err
}

// Batch evaluates many scenarios in one call (POST /v1/rtt:batch). Per-item
// failures come back inside the result, not as an error.
func (c *Client) Batch(ctx context.Context, scs []scenario.Scenario) (service.BatchResult, error) {
	req := service.BatchRequest{Scenarios: make([]json.RawMessage, len(scs))}
	for i, sc := range scs {
		req.Scenarios[i] = sc.JSON()
	}
	var res service.BatchResult
	_, err := c.Do(ctx, http.MethodPost, "/v1/rtt:batch", req, &res)
	return res, err
}

// Sweep evaluates the RTT-vs-load curve over [from, to] in step increments
// (POST /v1/sweep).
func (c *Client) Sweep(ctx context.Context, sc scenario.Scenario, from, to, step float64) (service.SweepResult, bool, error) {
	req := service.SweepRequest{Scenario: sc.JSON(), From: from, To: to, Step: step}
	var res service.SweepResult
	h, err := c.Do(ctx, http.MethodPost, "/v1/sweep", req, &res)
	return res, cachedHeader(h), err
}

// Dimension finds the maximum load and gamer count under an RTT bound in
// milliseconds (POST /v1/dimension).
func (c *Client) Dimension(ctx context.Context, sc scenario.Scenario, boundMs float64) (service.DimensionResult, bool, error) {
	req := service.DimensionRequest{Scenario: sc.JSON(), BoundMs: boundMs}
	var res service.DimensionResult
	h, err := c.Do(ctx, http.MethodPost, "/v1/dimension", req, &res)
	return res, cachedHeader(h), err
}

// Models lists the built-in game traffic models (GET /v1/models).
func (c *Client) Models(ctx context.Context) (service.ModelsResult, error) {
	var res service.ModelsResult
	_, err := c.Do(ctx, http.MethodGet, "/v1/models", nil, &res)
	return res, err
}

// Health reads the daemon's liveness and cache counters (GET /healthz).
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var res service.Health
	_, err := c.Do(ctx, http.MethodGet, "/healthz", nil, &res)
	return res, err
}

// Metrics scrapes and parses /metrics into a snapshot. Scrapes are not
// instrumented by the daemon, so snapshotting around a run does not distort
// the counters it reads.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	data, _, err := c.raw(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return MetricsSnapshot{}, err
	}
	return ParseMetrics(data)
}

// WaitReady polls /healthz until the daemon answers and reports Ready, the
// context is canceled, or timeout elapses — the standard way to sequence
// "boot daemon, then load it" in scripts and CI. A reachable-but-draining
// daemon (alive, ready=false) keeps WaitReady waiting, so a freshly
// restarted replica is never declared ready off a stale predecessor.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var lastErr error
	for {
		var h service.Health
		if h, lastErr = c.Health(ctx); lastErr == nil && h.Ready {
			return nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("daemon alive but not ready (status %q, generation %d)", h.Status, h.ReadyGeneration)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: daemon at %s not ready: %w (last: %v)", c.base, ctx.Err(), lastErr)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
