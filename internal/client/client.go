// Package client is the typed Go client for fpspingd: one method per
// endpoint (RTT, Batch, Sweep, Dimension, Models, Health, Metrics) plus the
// generic Do primitive they are built on. Under Do sits Exchange, the one
// outbound HTTP exchange, which fpsrouter forwards through too. Requests
// and responses are the daemon's own wire types — scenario.Scenario going
// out, the service package's result structs coming back — so client and
// server cannot drift apart, and a value that round-trips through the
// daemon is the value the engine computed.
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

// MaxResponseBytes caps a response body read into memory; the largest
// legitimate response (a few thousand batch items) stays far below it. A
// body over the cap is an error, never a silently truncated answer. A
// variable so tests can lower it instead of serving 64 MiB.
var MaxResponseBytes int64 = 64 << 20

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

// Response is one exchange's answer, whatever its status.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Exchange performs one request against path (query strings allowed) and
// reads the whole answer for any status. A non-empty body is sent as
// contentType. A response body over MaxResponseBytes is an error naming the
// cap. Every outbound request of the daemon's clients, the router's
// forwarding included, goes through it.
func (c *Client) Exchange(ctx context.Context, method, path, contentType string, body []byte) (Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return Response{}, fmt.Errorf("client: %w", err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Response{}, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	res := Response{Status: resp.StatusCode, Header: resp.Header}
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxResponseBytes+1))
	if err != nil {
		return res, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if int64(len(data)) > MaxResponseBytes {
		return res, fmt.Errorf("client: %s%s response over the %d-byte cap", c.base, path, MaxResponseBytes)
	}
	res.Body = data
	return res, nil
}

// call is Exchange with a non-2xx answer turned into an *APIError carrying
// the daemon's error envelope message.
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte) (Response, error) {
	res, err := c.Exchange(ctx, method, path, contentType, body)
	if err != nil || res.Status/100 == 2 {
		return res, err
	}
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(res.Body))
	if json.Unmarshal(res.Body, &envelope) == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return res, &APIError{StatusCode: res.Status, Message: msg}
}

// Do performs one JSON request against path ("/v1/rtt", query strings
// allowed): body is JSON-encoded when non-nil, a 2xx response is decoded
// into out when non-nil, and a non-2xx response becomes an *APIError. The
// response header is returned either way so callers can read CacheHeader.
// The typed endpoint methods below are Do with the wire types filled in.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) (http.Header, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	res, err := c.call(ctx, method, path, "application/json", data)
	if err != nil {
		return res.Header, err
	}
	return res.Header, decode(path, res.Body, out)
}

// decode unmarshals a 2xx response body into out when out is non-nil.
func decode(path string, data []byte, out any) error {
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
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
	res, err := c.call(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return MetricsSnapshot{}, err
	}
	return ParseMetrics(res.Body)
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
		h, err := c.Health(ctx)
		switch {
		case err == nil && h.Ready:
			return nil
		case err == nil:
			lastErr = fmt.Errorf("daemon alive but not ready (status %q, generation %d)", h.Status, h.ReadyGeneration)
		case ctx.Err() == nil || lastErr == nil:
			// A poll the deadline cut short says nothing about the daemon:
			// the last answer it gave stays the reason.
			lastErr = err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("client: daemon at %s not ready: %w (last: %v)", c.base, ctx.Err(), lastErr)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
