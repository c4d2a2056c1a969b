package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"fpsping/internal/core"
	"fpsping/internal/scenario"
)

func newTestServer(t *testing.T, jobs int) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer("127.0.0.1:0", NewEngine(jobs, 0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRTTEndpointGetAndPostAgree(t *testing.T) {
	_, ts := newTestServer(t, 2)
	respGet, bodyGet := do(t, http.MethodGet, ts.URL+"/v1/rtt?load=0.5", "")
	if respGet.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", respGet.StatusCode, bodyGet)
	}
	if got := respGet.Header.Get(CacheHeader); got != "miss" {
		t.Errorf("first call cache header %q", got)
	}
	respPost, bodyPost := do(t, http.MethodPost, ts.URL+"/v1/rtt", `{"load": 0.5}`)
	if respPost.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", respPost.StatusCode, bodyPost)
	}
	if got := respPost.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("identical repeat cache header %q", got)
	}
	if string(bodyGet) != string(bodyPost) {
		t.Errorf("GET and POST bodies differ:\n%s\n%s", bodyGet, bodyPost)
	}
	var res RTTResult
	if err := json.Unmarshal(bodyGet, &res); err != nil {
		t.Fatal(err)
	}
	if !(res.QuantileMs > 0) || res.DownlinkLoad != 0.5 {
		t.Errorf("implausible result: %+v", res)
	}
}

func TestRTTEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, 1)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"unknown JSON key", http.MethodPost, "/v1/rtt", `{"gamer": 80}`, http.StatusBadRequest},
		{"malformed JSON", http.MethodPost, "/v1/rtt", `{`, http.StatusBadRequest},
		{"invalid scenario", http.MethodGet, "/v1/rtt?gamers=0", "", http.StatusBadRequest},
		{"unstable scenario", http.MethodGet, "/v1/rtt?load=1.5", "", http.StatusUnprocessableEntity},
		{"bad query value", http.MethodGet, "/v1/rtt?t=fast", "", http.StatusBadRequest},
		{"typoed query key", http.MethodGet, "/v1/rtt?gamer=200", "", http.StatusBadRequest},
		{"unknown sweep body key", http.MethodPost, "/v1/sweep", `{"scenario": {}, "stepp": 0.01}`, http.StatusBadRequest},
		{"bound misspelled in body", http.MethodPost, "/v1/dimension", `{"scenario": {}, "bound": 40}`, http.StatusBadRequest},
		{"unknown batch key", http.MethodPost, "/v1/rtt:batch", `{"scenario": [{}]}`, http.StatusBadRequest},
		{"second JSON object", http.MethodPost, "/v1/rtt", `{"gamers":64} {"gamers":70}`, http.StatusBadRequest},
		{"data after the JSON object", http.MethodPost, "/v1/rtt", `{"gamers":64}xyz`, http.StatusBadRequest},
		{"data after the batch", http.MethodPost, "/v1/rtt:batch", `{"scenarios":[{"gamers":64}]} 1`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := do(t, c.method, ts.URL+c.path, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, c.wantStatus, body)
			}
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body not a JSON envelope: %s", body)
			}
		})
	}
	resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/rtt", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status %d", resp.StatusCode)
	}
}

// TestDecodersBothFormsOneKey checks that the query and the body form of
// each keyed request decode to one scenario key and the same parameters,
// and that unparsable requests are rejected as the client's fault. The
// cluster router keys its ring on these decodes.
func TestDecodersBothFormsOneKey(t *testing.T) {
	want, err := scenario.FromQuery(url.Values{"gamers": {"64"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		decode Decoder
		query  string
		body   string
		want   Request
	}{
		{"rtt query", DecodeRTT, "gamers=64", "", Request{}},
		{"rtt body", DecodeRTT, "", `{"gamers":64}`, Request{}},
		{"sweep query", DecodeSweep, "gamers=64&from=0.1&to=0.8&step=0.1", "", Request{From: 0.1, To: 0.8, Step: 0.1}},
		{"sweep body", DecodeSweep, "", `{"scenario":{"gamers":64},"from":0.1,"to":0.8,"step":0.1}`, Request{From: 0.1, To: 0.8, Step: 0.1}},
		{"dimension query", DecodeDimension, "gamers=64&bound=45", "", Request{BoundMs: 45}},
		{"dimension body", DecodeDimension, "", `{"scenario":{"gamers":64},"bound_ms":45}`, Request{BoundMs: 45}},
	}
	for _, c := range cases {
		values, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.decode(values, []byte(c.body))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got.Scenario.Canonical() != want.Canonical() {
			t.Errorf("%s: key %q, want %q", c.name, got.Scenario.Canonical(), want.Canonical())
		}
		c.want.Scenario = got.Scenario
		if got != c.want {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.want)
		}
	}
	if _, err := DecodeRTT(url.Values{"gamers": {"not-a-number"}}, nil); errStatus(err) != http.StatusBadRequest {
		t.Errorf("unparsable scenario: %v", err)
	}
	if _, err := DecodeRTT(nil, []byte(`{"unknown_field":1}`)); errStatus(err) != http.StatusBadRequest {
		t.Errorf("unknown field: %v", err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 4)
	body := `{"scenarios": [{"load": 0.5}, {"k": 0}, {"load": 0.5}]}`
	resp, data := do(t, http.MethodPost, ts.URL+"/v1/rtt:batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res BatchResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("%d results", len(res.Results))
	}
	if res.Results[0].Result == nil || res.Results[2].Result == nil {
		t.Error("valid items failed")
	}
	if res.Results[1].Error == "" {
		t.Error("invalid item did not error")
	}
	if res.Cached != 1 {
		t.Errorf("Cached = %d", res.Cached)
	}

	for _, bad := range []string{"", `{"scenarios": []}`, `not json`, `{"scenarios": [{"oops": 1}]}`} {
		resp, _ := do(t, http.MethodPost, ts.URL+"/v1/rtt:batch", bad)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("batch body %q accepted", bad)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 4)
	respQ, bodyQ := do(t, http.MethodGet, ts.URL+"/v1/sweep?ps=125&t=60&from=0.1&to=0.5&step=0.1", "")
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", respQ.StatusCode, bodyQ)
	}
	respJ, bodyJ := do(t, http.MethodPost, ts.URL+"/v1/sweep",
		`{"scenario": {"ps": 125, "t": 60}, "from": 0.1, "to": 0.5, "step": 0.1}`)
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", respJ.StatusCode, bodyJ)
	}
	if string(bodyQ) != string(bodyJ) {
		t.Errorf("query and JSON sweeps differ:\n%s\n%s", bodyQ, bodyJ)
	}
	if got := respJ.Header.Get(CacheHeader); got != "hit" {
		t.Errorf("repeat sweep cache header %q", got)
	}
	var res SweepResult
	if err := json.Unmarshal(bodyQ, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Errorf("%d points", len(res.Points))
	}
	// Defaults: an empty POST body sweeps the default scenario 5%..90%.
	resp, data := do(t, http.MethodPost, ts.URL+"/v1/sweep", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default sweep status %d: %s", resp.StatusCode, data)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/v1/sweep?from=0.5&to=0.1", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inverted range status %d", resp.StatusCode)
	}
	// A grid with no stable point is an instability answer, not a server
	// fault.
	resp, _ = do(t, http.MethodGet, ts.URL+"/v1/sweep?from=1.0&to=1.2&step=0.05", "")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("all-unstable sweep status %d, want 422", resp.StatusCode)
	}
}

// TestSweepRangeBounded pins the daemon's sweep range check: an infinite
// bound and a step that would need a million points are 400s answered
// before any work, and the 1000-point edge is served.
func TestSweepRangeBounded(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	for _, q := range []string{
		"from=0.05&to=Inf&step=0.05",
		"from=0.05&to=0.9&step=1e-6",
		"from=0.05&to=0.55&step=0.0005", // 1000 points plus one
		"from=NaN",
		"step=-Inf",
	} {
		resp, body := do(t, http.MethodGet, ts.URL+"/v1/sweep?"+q, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/sweep?%s: status %d, want 400: %.200s", q, resp.StatusCode, body)
		}
	}
	resp, body := do(t, http.MethodPost, ts.URL+"/v1/sweep", `{"from": 0.05, "to": 0.9, "step": 1e-6}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST fine-step sweep: status %d, want 400: %.200s", resp.StatusCode, body)
	}
	if n := srv.engine.Computes(); n != 0 {
		t.Errorf("refused sweeps computed %d points", n)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/v1/sweep?from=0.05&to=0.5495&step=0.0005", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("1000-point sweep: status %d: %.200s", resp.StatusCode, body)
	}
	var res SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1000 {
		t.Errorf("1000-point sweep returned %d points", len(res.Points))
	}
}

func TestDimensionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2)
	respQ, bodyQ := do(t, http.MethodGet, ts.URL+"/v1/dimension?ps=125&t=60&k=9&bound=50", "")
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", respQ.StatusCode, bodyQ)
	}
	respJ, bodyJ := do(t, http.MethodPost, ts.URL+"/v1/dimension",
		`{"scenario": {"ps": 125, "t": 60, "k": 9}, "bound_ms": 50}`)
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", respJ.StatusCode, bodyJ)
	}
	if string(bodyQ) != string(bodyJ) {
		t.Errorf("query and JSON dimension differ:\n%s\n%s", bodyQ, bodyJ)
	}
	var res DimensionResult
	if err := json.Unmarshal(bodyQ, &res); err != nil {
		t.Fatal(err)
	}
	if res.MaxGamers < 1 || !(res.RTTAtMaxMs <= res.BoundMs) {
		t.Errorf("implausible dimensioning: %+v", res)
	}
	// The GET spelling "bound_ms" matches the JSON body field and wins
	// over the short form; both produce the same answer as the POST body.
	_, bodyMs := do(t, http.MethodGet, ts.URL+"/v1/dimension?ps=125&t=60&k=9&bound_ms=50", "")
	if string(bodyMs) != string(bodyQ) {
		t.Errorf("bound_ms= and bound= answers differ:\n%s\n%s", bodyMs, bodyQ)
	}
	resp, _ := do(t, http.MethodGet, ts.URL+"/v1/dimension?bound=-1", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative bound status %d", resp.StatusCode)
	}
}

func TestModelsHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, data := do(t, http.MethodGet, ts.URL+"/v1/models", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models status %d", resp.StatusCode)
	}
	var models struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(data, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) < 3 {
		t.Errorf("only %d traffic models", len(models.Models))
	}
	for _, m := range models.Models {
		if m.Name == "" || !(m.Server.MeanSizeBytes > 0) {
			t.Errorf("incomplete model info: %+v", m)
		}
	}

	// Generate some traffic, then check it is visible in healthz/metrics.
	do(t, http.MethodGet, ts.URL+"/v1/rtt?load=0.5", "")
	do(t, http.MethodGet, ts.URL+"/v1/rtt?load=0.5", "")

	resp, data = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status      string `json:"status"`
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
	}
	if err := json.Unmarshal(data, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.CacheHits < 1 || health.CacheMisses < 1 {
		t.Errorf("healthz = %+v", health)
	}

	resp, data = do(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	out := string(data)
	for _, want := range []string{
		`fpsping_requests_total{endpoint="/v1/rtt"} 2`,
		`fpsping_cache_hits_total{endpoint="/v1/rtt"} 1`,
		`fpsping_requests_total{endpoint="/v1/models"} 1`,
		// The cache gauges: the two rtt entries are the full result and
		// its sweep point.
		"fpsping_cache_entries 2",
		"fpsping_cache_lookup_hits_total 1",
		"fpsping_cache_lookup_misses_total 1",
		"fpsping_cache_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard") {
		t.Errorf("metrics still carry a retired shard family:\n%s", out)
	}
	// healthz reports the same cache state.
	var h Health
	_, data = do(t, http.MethodGet, ts.URL+"/healthz", "")
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheEntries != 2 || h.CacheEvictions != 0 || strings.Contains(string(data), "shard") {
		t.Errorf("healthz cache fields: %+v", h)
	}
}

// rttOK fetches /v1/rtt at query and requires a 200 with a finite quantile.
func rttOK(t *testing.T, ts *httptest.Server, query string) RTTResult {
	t.Helper()
	resp, body := do(t, http.MethodGet, ts.URL+"/v1/rtt?"+query, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
	}
	var res RTTResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.QuantileMs) || math.IsInf(res.QuantileMs, 0) || !(res.QuantileMs > 0) {
		t.Fatalf("%s: quantile %v ms", query, res.QuantileMs)
	}
	return res
}

// TestRTTAtErlangOrderCap pins that the largest accepted Erlang order
// answers the default scenario, where the burst wait is the unit atom
// (load 0.4), and the same scenario at load 0.75, where it keeps its
// poles.
func TestRTTAtErlangOrderCap(t *testing.T) {
	_, ts := newTestServer(t, 1)
	rttOK(t, ts, fmt.Sprintf("k=%d", core.MaxErlangOrder))
	rttOK(t, ts, fmt.Sprintf("k=%d&load=0.75", core.MaxErlangOrder))
}

// TestRTTAboveErlangOrderCap pins that an order past the cap is the
// client's error, rejected before any solve.
func TestRTTAboveErlangOrderCap(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, body := do(t, http.MethodGet, ts.URL+fmt.Sprintf("/v1/rtt?k=%d", core.MaxErlangOrder+1), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestRTTLargeErlangOrderFinishes pins a K=100 quantile, where the position
// ladder crowds, to a bounded run: at the default load 0.4, where the
// burst wait is the unit atom, and at load 0.75, where the D/E_K/1 poles
// crowd too.
func TestRTTLargeErlangOrderFinishes(t *testing.T) {
	_, ts := newTestServer(t, 1)
	client := &http.Client{Timeout: 30 * time.Second}
	for _, query := range []string{"k=100", "k=100&load=0.75"} {
		resp, err := client.Get(ts.URL + "/v1/rtt?" + query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		var res RTTResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !(res.QuantileMs > 0) || math.IsInf(res.QuantileMs, 0) {
			t.Errorf("%s: status %d, quantile %v ms", query, resp.StatusCode, res.QuantileMs)
		}
	}
}
