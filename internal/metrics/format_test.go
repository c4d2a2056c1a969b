package metrics_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fpsping/internal/cluster"
	"fpsping/internal/metrics"
	"fpsping/internal/service"
)

// checkStrict is the one strict text-format check for every /metrics page
// in the repository, daemon and router alike. It holds a page to the rules
// strict Prometheus parsers enforce by dropping violators:
//   - every # TYPE line is well formed, unique, and declares a table family
//     with its table type;
//   - every sample belongs to exactly one # TYPE-declared family (a
//     summary's _sum and _count samples to the summary) and sits in that
//     family's block, which runs from its # TYPE line to the next one, so
//     each family is one contiguous block after its declaration;
//   - every declared family has samples, and every family in want is
//     declared.
func checkStrict(page string, want ...metrics.Family) error {
	var errs []error
	typed := make(map[string]int) // declared family -> samples in its block
	block := ""
	for i, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		bad := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("line %d: %s", i+1, fmt.Sprintf(format, args...)))
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fs := strings.Fields(line)
			if len(fs) != 4 {
				bad("malformed TYPE line %q", line)
				continue
			}
			name, kind := fs[2], fs[3]
			if _, dup := typed[name]; dup {
				bad("duplicate TYPE for %s", name)
			}
			if f, ok := family(name); !ok || f.Name() != name || f.Kind() != kind {
				bad("TYPE %s %s declares no table family of that type", name, kind)
			}
			typed[name], block = 0, name
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		samples, err := metrics.Parse([]byte(line))
		if err != nil || len(samples) != 1 {
			bad("sample %q belongs to no table family (%v)", line, err)
			continue
		}
		name := samples[0].Family.Name()
		if _, ok := typed[name]; !ok {
			bad("sample %q has no TYPE declaration before it", line)
		} else if name != block {
			bad("sample %q of %s is outside its family's block", line, name)
		} else {
			typed[name]++
		}
	}
	for name, n := range typed {
		if n == 0 {
			errs = append(errs, fmt.Errorf("family %s has no samples after its TYPE line", name))
		}
	}
	for _, f := range want {
		if _, ok := typed[f.Name()]; !ok {
			errs = append(errs, fmt.Errorf("family %s has no TYPE declaration", f.Name()))
		}
	}
	return errors.Join(errs...)
}

// family resolves a name through the table the way Parse resolves a sample.
func family(name string) (metrics.Family, bool) {
	samples, err := metrics.Parse([]byte(name + " 0"))
	if err != nil || len(samples) != 1 {
		return 0, false
	}
	return samples[0].Family, true
}

var (
	requestFamilies = []metrics.Family{metrics.Uptime, metrics.Requests, metrics.RequestErrors, metrics.CacheHits}
	daemonFamilies  = append(requestFamilies, metrics.RequestLatency,
		metrics.CacheEntries, metrics.CacheLookupHits, metrics.CacheLookupMisses,
		metrics.CacheEvictions)
	routerFamilies = append(requestFamilies, metrics.RequestLatency,
		metrics.RouterReplicas, metrics.RouterRetries, metrics.RouterSpills,
		metrics.RouterBatchSplits, metrics.RouterNoReplica, metrics.ReplicaUp, metrics.ReplicaReady,
		metrics.ReplicaRequests, metrics.ReplicaErrors, metrics.ReplicaInflight, metrics.BreakerOpen)
)

// scrape GETs each path from base (each must answer 200) and then returns
// the /metrics page.
func scrape(t *testing.T, base string, paths ...string) string {
	t.Helper()
	for _, p := range append(paths, "/metrics") {
		resp, err := http.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", p, resp.StatusCode, err, body)
		}
		if p == "/metrics" {
			return string(body)
		}
	}
	return ""
}

func newDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(2, 0)).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// modelRequests reach more than one instrumented endpoint, so a daemon page
// holds the global series and several per-endpoint series of each family.
var modelRequests = []string{"/v1/rtt?load=0.3", "/v1/rtt?load=0.3", "/v1/models", "/v1/sweep?from=0.1&to=0.3&step=0.1"}

func TestStrictFormatDaemonPage(t *testing.T) {
	page := scrape(t, newDaemon(t), modelRequests...)
	if err := checkStrict(page, daemonFamilies...); err != nil {
		t.Errorf("daemon /metrics breaks the strict format:\n%v\n%s", err, page)
	}
	for _, series := range []string{"fpsping_requests_total 4\n", `fpsping_requests_total{endpoint="/v1/sweep"} 1`} {
		if !strings.Contains(page, series) {
			t.Errorf("page lacks %q:\n%s", series, page)
		}
	}
}

// TestStrictFormatDimensionProbes pins the dimensioning probe summary on
// the daemon page: absent before any dimensioning, then one strict-format
// block whose _count is the computed answers and whose _sum their quantile
// evaluations. A cached repeat computes nothing and folds nothing in.
func TestStrictFormatDimensionProbes(t *testing.T) {
	base := newDaemon(t)
	if page := scrape(t, base); strings.Contains(page, metrics.DimensionProbes.Name()) {
		t.Errorf("probe summary on a page with no dimensioning:\n%s", page)
	}
	page := scrape(t, base, "/v1/dimension?bound_ms=50", "/v1/dimension?bound_ms=50")
	if err := checkStrict(page, append(daemonFamilies[:len(daemonFamilies):len(daemonFamilies)], metrics.DimensionProbes)...); err != nil {
		t.Errorf("daemon /metrics breaks the strict format:\n%v\n%s", err, page)
	}
	samples, err := metrics.Parse([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, s := range samples {
		if s.Family == metrics.DimensionProbes {
			got[s.Suffix] = s.Value
		}
	}
	if got["_count"] != 1 || !(got["_sum"] >= 3 && got["_sum"] <= 24) {
		t.Errorf("probe summary sum %v count %v, want one answer of 3-24 evaluations:\n%s", got["_sum"], got["_count"], page)
	}
}

func TestStrictFormatRouterPage(t *testing.T) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: []string{newDaemon(t), newDaemon(t)}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	page := scrape(t, front.URL, modelRequests...)
	if err := checkStrict(page, routerFamilies...); err != nil {
		t.Errorf("router /metrics breaks the strict format:\n%v\n%s", err, page)
	}
}

// TestStrictFormatRejects feeds the check pages that break each rule once,
// and the daemon page of the previous release, whose request families had
// no TYPE lines and split into one block per endpoint.
func TestStrictFormatRejects(t *testing.T) {
	untyped, err := os.ReadFile("../client/testdata/daemon-page-untyped.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStrict(string(untyped), daemonFamilies...); err == nil ||
		!strings.Contains(err.Error(), `sample "fpsping_requests_total 6" has no TYPE declaration`) {
		t.Errorf("untyped daemon page: %v", err)
	}
	good := "# TYPE fpsping_requests_total counter\nfpsping_requests_total 1\nfpsping_requests_total{endpoint=\"/v1/rtt\"} 1\n" +
		"# TYPE fpsping_request_latency_seconds summary\nfpsping_request_latency_seconds_sum 0.5\n" +
		"fpsping_request_latency_seconds_count 1\nfpsping_request_latency_seconds{quantile=\"0.5\"} 0.5\n"
	if err := checkStrict(good, metrics.Requests, metrics.RequestLatency); err != nil {
		t.Fatalf("well-formed page rejected: %v", err)
	}
	for _, tc := range []struct{ name, page, want string }{
		{"untyped sample", "fpsping_requests_total 1\n", "no TYPE declaration"},
		{"malformed TYPE", "# TYPE fpsping_requests_total\n", "malformed TYPE"},
		{"duplicate TYPE", good + "# TYPE fpsping_requests_total counter\nfpsping_requests_total 2\n", "duplicate TYPE"},
		{"wrong type", "# TYPE fpsping_requests_total gauge\nfpsping_requests_total 1\n", "no table family of that type"},
		{"summary pair declared alone", "# TYPE fpsping_request_latency_seconds_sum counter\nfpsping_request_latency_seconds_sum 1\n", "no table family"},
		{"unknown family", "# TYPE other_total counter\nother_total 1\n", "belongs to no table family"},
		{"split block", strings.Replace(good, "fpsping_requests_total{endpoint=\"/v1/rtt\"} 1\n", "", 1) +
			"fpsping_requests_total{endpoint=\"/v1/rtt\"} 1\n", "outside its family's block"},
		{"summary pair outside its block", "# TYPE fpsping_request_latency_seconds summary\nfpsping_request_latency_seconds 1\n" +
			"# TYPE fpsping_requests_total counter\nfpsping_requests_total 1\nfpsping_request_latency_seconds_count 1\n", "outside its family's block"},
		{"empty family", "# TYPE fpsping_requests_total counter\n# TYPE fpsping_cache_hits_total counter\nfpsping_cache_hits_total 1\n", "no samples"},
		{"missing family", "# TYPE fpsping_cache_hits_total counter\nfpsping_cache_hits_total 1\n", "fpsping_requests_total has no TYPE declaration"},
	} {
		err := checkStrict(tc.page, metrics.Requests)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
