package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpsping/internal/client"
	"fpsping/internal/service"
)

// twinDaemons boots two identical in-process daemons. The first answers
// directly; the second sits behind a Router whose two replicas are two
// front ends of its one handler, so a batch can split across replicas
// while both daemons see the same requests in the same order and hold the
// same cache.
func twinDaemons(tb testing.TB) (direct, routed string, rt *Router) {
	tb.Helper()
	boot := func() http.Handler {
		return service.NewServer("127.0.0.1:0", service.NewEngine(2, 0)).Handler()
	}
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		tb.Cleanup(srv.Close)
		return srv.URL
	}
	direct = serve(boot())
	twin := boot()
	rt, err := NewRouter(RouterConfig{Replicas: []string{serve(twin), serve(twin)}, Timeout: 30 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	return direct, serve(rt.Handler()), rt
}

// wireAnswer is what a client can tell apart in an answer.
type wireAnswer struct {
	status int
	cache  string
	body   string
}

// ask sends one request and reads its answer.
func ask(base, method, target, body string) (wireAnswer, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+target, rd)
	if err != nil {
		return wireAnswer{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return wireAnswer{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return wireAnswer{}, err
	}
	return wireAnswer{status: resp.StatusCode, cache: resp.Header.Get(service.CacheHeader), body: string(data)}, nil
}

// TestRoutedEqualsDirect sends every request to one daemon directly and to
// its twin through a Router: status, body bytes and cache disposition must
// match, for answers and for every kind of rejection.
func TestRoutedEqualsDirect(t *testing.T) {
	direct, routed, rt := twinDaemons(t)
	// Twelve distinct scenarios: the replicas' ring positions follow their
	// random test ports, so five items landed on one replica in ~1 run of
	// 16; twelve all do so in ~1 of 2,000.
	split := `{"scenarios":[{"gamers":60},{"gamers":61},{"gamers":62},{"gamers":63},{"gamers":64},{"gamers":65},` +
		`{"gamers":66},{"gamers":67},{"gamers":68},{"gamers":69},{"gamers":70},{"gamers":71},{"gamers":60}]}`
	cases := []struct {
		name, method, target, body string
		status                     int
	}{
		{"rtt query", http.MethodGet, "/v1/rtt?gamers=64", "", http.StatusOK},
		{"rtt body", http.MethodPost, "/v1/rtt", `{"gamers":65}`, http.StatusOK},
		{"rtt cached", http.MethodGet, "/v1/rtt?gamers=64", "", http.StatusOK},
		{"sweep query", http.MethodGet, "/v1/sweep?gamers=40&from=0.1&to=0.3&step=0.1", "", http.StatusOK},
		{"sweep body", http.MethodPost, "/v1/sweep", `{"scenario":{"k":5},"from":0.2,"to":0.4,"step":0.1}`, http.StatusOK},
		{"dimension query", http.MethodGet, "/v1/dimension?k=7&bound=45", "", http.StatusOK},
		{"dimension body", http.MethodPost, "/v1/dimension", `{"scenario":{"k":5},"bound_ms":45}`, http.StatusOK},
		{"split batch", http.MethodPost, "/v1/rtt:batch", split, http.StatusOK},
		{"split batch cached", http.MethodPost, "/v1/rtt:batch", split, http.StatusOK},
		{"models", http.MethodGet, "/v1/models", "", http.StatusOK},
		{"bad parameter", http.MethodGet, "/v1/rtt?t=fast", "", http.StatusBadRequest},
		{"bad sweep parameter", http.MethodGet, "/v1/sweep?from=low&to=high", "", http.StatusBadRequest},
		{"zero dimension bound", http.MethodGet, "/v1/dimension?bound=0", "", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/rtt", `{"gamer":80}`, http.StatusBadRequest},
		{"unknown query key", http.MethodGet, "/v1/sweep?gamer=80", "", http.StatusBadRequest},
		{"unknown sweep field", http.MethodPost, "/v1/sweep", `{"scenario":{},"stepp":0.01}`, http.StatusBadRequest},
		{"unstable scenario", http.MethodGet, "/v1/rtt?load=1.5", "", http.StatusUnprocessableEntity},
		{"over-limit body", http.MethodPost, "/v1/rtt", strings.Repeat(" ", 4<<20+1), http.StatusBadRequest},
		{"batch unknown field", http.MethodPost, "/v1/rtt:batch", `{"scenarios":[{"gamers":64}],"bogus":1}`, http.StatusBadRequest},
		{"batch bad item", http.MethodPost, "/v1/rtt:batch", `{"scenarios":[{"gamers":64},{"gamer":1}]}`, http.StatusBadRequest},
		{"batch without body", http.MethodGet, "/v1/rtt:batch", "", http.StatusBadRequest},
		{"trailing JSON", http.MethodPost, "/v1/rtt", `{"gamers":64} {"gamers":70}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "/v1/dimension", `{"bound_ms":45}xyz`, http.StatusBadRequest},
		{"wrong method", http.MethodDelete, "/v1/rtt?gamers=64", "", http.StatusMethodNotAllowed},
		{"wrong method on models", http.MethodPut, "/v1/models", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := ask(direct, c.method, c.target, c.body)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ask(routed, c.method, c.target, c.body)
			if err != nil {
				t.Fatal(err)
			}
			if d != r {
				t.Errorf("routed answer differs from the direct one:\ndirect %d cache=%q %s\nrouted %d cache=%q %s",
					d.status, d.cache, d.body, r.status, r.cache, r.body)
			}
			if d.status != c.status {
				t.Errorf("status %d, want %d: %s", d.status, c.status, d.body)
			}
		})
	}
	if rt.splits.Load() == 0 {
		t.Error("the split batch landed on one replica; pick items with more owners")
	}
	// The router counts requests with the daemon's recorder: after the same
	// requests, its request, error and cache-hit counters read as the direct
	// daemon's, per endpoint and in the global series.
	if d, r := requestCounts(t, direct), requestCounts(t, routed); !reflect.DeepEqual(d, r) {
		t.Errorf("request counters (requests, errors, hits) differ:\ndirect %v\nrouted %v", d, r)
	}
}

// requestCounts scrapes base's /metrics into (requests, errors, cache hits)
// per endpoint, the global series under "".
func requestCounts(t *testing.T, base string) map[string][3]uint64 {
	t.Helper()
	_, page := get(t, base+"/metrics")
	snap, err := client.ParseMetrics([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][3]uint64{"": {snap.Global.Requests, snap.Global.Errors, snap.Global.CacheHits}}
	for ep, m := range snap.Endpoints {
		out[ep] = [3]uint64{m.Requests, m.Errors, m.CacheHits}
	}
	return out
}

// fuzzEndpoints are the model endpoints FuzzRoutedEqualsDirect picks from.
var fuzzEndpoints = []string{"/v1/rtt", "/v1/sweep", "/v1/dimension", "/v1/rtt:batch", "/v1/models"}

// FuzzRoutedEqualsDirect is TestRoutedEqualsDirect over arbitrary
// (endpoint, query, body) triples: whatever the daemon answers, the router
// in front of its twin answers byte for byte.
func FuzzRoutedEqualsDirect(f *testing.F) {
	direct, routed, _ := twinDaemons(f)
	seeds := []struct {
		endpoint    uint8
		query, body string
	}{
		{0, "gamers=64", ""},
		{0, "", `{"gamers":64,"k":4}`},
		{0, "load=1.5", ""},
		{0, "", `{"gamers":64} {"gamers":70}`},
		{1, "from=0.1&to=0.3&step=0.1", ""},
		{1, "", `{"scenario":{"gamers":30},"step":0.2}`},
		{2, "bound=40&k=3", ""},
		{2, "", `{"bound_ms":-1}`},
		{3, "", `{"scenarios":[{"gamers":60},{"load":0.4},{"gamers":60}]}`},
		{3, "", `{"scenarios":[{"gamers":64}],"bogus":1}`},
		{4, "", ""},
	}
	for _, s := range seeds {
		f.Add(s.endpoint, s.query, s.body)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, query, body string) {
		target := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		if query != "" {
			target += "?" + query
		}
		method := http.MethodGet
		if body != "" {
			method = http.MethodPost
		}
		d, derr := ask(direct, method, target, body)
		r, rerr := ask(routed, method, target, body)
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("%s %q: direct error %v, routed error %v", method, target, derr, rerr)
		}
		if d != r {
			t.Errorf("%s %q %q: routed answer differs from the direct one:\ndirect %d cache=%q %s\nrouted %d cache=%q %s",
				method, target, body, d.status, d.cache, d.body, r.status, r.cache, r.body)
		}
	})
}

// BenchmarkRouterRTT is the routed counterpart of the service package's
// BenchmarkServiceRTT/cached: one cached /v1/rtt through an in-process
// Router handler to an httptest daemon, so the hop's decode, loopback
// forward, copy and request series are under the paired gate.
func BenchmarkRouterRTT(b *testing.B) {
	daemon := httptest.NewServer(service.NewServer("127.0.0.1:0", service.NewEngine(1, 0)).Handler())
	b.Cleanup(daemon.Close)
	rt, err := NewRouter(RouterConfig{Replicas: []string{daemon.URL}})
	if err != nil {
		b.Fatal(err)
	}
	h := rt.Handler()
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/rtt?load=0.5", nil))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(); w.Code != http.StatusOK || w.Header().Get(service.CacheHeader) != "hit" {
			b.Fatalf("%d %q %s", w.Code, w.Header().Get(service.CacheHeader), w.Body)
		}
	}
}
