package metrics

import (
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPageGroupsFamilies adds samples out of family order and checks each
// family renders as one block under its # TYPE line, in table order, with
// the sample formats the daemon and router have always used.
func TestPageGroupsFamilies(t *testing.T) {
	var p Page
	p.Add(ReplicaUp, "http://a", true)
	p.Add(CacheHits, "/v1/rtt", uint64(3))
	p.Add(Requests, "/v1/rtt", uint64(7))
	p.Add(ReplicaUp, "http://b", false)
	p.Add(Uptime, "", 1234567*time.Microsecond)
	p.Add(Requests, "", uint64(9))
	p.Add(CacheHits, "/v1/sweep", uint64(4))
	p.Add(ReplicaInflight, "http://a", int64(2))
	want := `# TYPE fpsping_uptime_seconds gauge
fpsping_uptime_seconds 1.235
# TYPE fpsping_requests_total counter
fpsping_requests_total{endpoint="/v1/rtt"} 7
fpsping_requests_total 9
# TYPE fpsping_cache_hits_total counter
fpsping_cache_hits_total{endpoint="/v1/rtt"} 3
fpsping_cache_hits_total{endpoint="/v1/sweep"} 4
# TYPE fpsrouter_replica_up gauge
fpsrouter_replica_up{replica="http://a"} 1
fpsrouter_replica_up{replica="http://b"} 0
# TYPE fpsrouter_replica_inflight gauge
fpsrouter_replica_inflight{replica="http://a"} 2
`
	if got := p.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
	var empty Page
	if got := empty.String(); got != "" {
		t.Errorf("empty page renders %q", got)
	}
}

// TestRecorderSampleLinesUnchanged replays a fixed request sequence and
// compares the request families' sample lines with the page the daemon's
// previous hand-written writer rendered for the same sequence
// (testdata/requests-page-v0.txt): the same lines, now grouped by family
// under # TYPE lines. Uptime is wall-clock time and is compared by name only.
func TestRecorderSampleLinesUnchanged(t *testing.T) {
	r := NewRecorder()
	for i, ms := range []float64{10, 1, 1, 3.5, 120, 0.25, 7, 42, 2} {
		r.Observe("/v1/rtt", time.Duration(ms*float64(time.Millisecond)), i%3 == 1, i%4 == 2)
	}
	r.Observe("/v1/sweep", 250*time.Millisecond, false, false)
	r.Observe("/v1/models", 50*time.Microsecond, false, false)
	r.Observe("/v1/sweep", 3*time.Millisecond, true, false)
	var p Page
	r.Collect(&p)
	old, err := os.ReadFile("testdata/requests-page-v0.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples := func(page string) []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
			if strings.HasPrefix(line, "fpsping_uptime_seconds ") {
				line = "fpsping_uptime_seconds"
			}
			if !strings.HasPrefix(line, "#") {
				out = append(out, line)
			}
		}
		slices.Sort(out)
		return out
	}
	if got, want := samples(p.String()), samples(string(old)); !slices.Equal(got, want) {
		t.Errorf("sample lines changed:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	page := p.String()
	for _, name := range []string{Requests.Name(), RequestErrors.Name(), CacheHits.Name()} {
		if strings.Count(page, "# TYPE "+name+" counter\n") != 1 {
			t.Errorf("page lacks one # TYPE line for %s:\n%s", name, page)
		}
	}
	if !strings.Contains(page, "# TYPE fpsping_request_latency_seconds summary\nfpsping_request_latency_seconds_sum 0.4398\n") {
		t.Errorf("latency summary block does not open with the global series:\n%s", page)
	}
}

func TestParseResolvesTheTable(t *testing.T) {
	page := `# HELP ignored
fpsping_uptime_seconds 12.5
fpsping_request_latency_seconds_sum{endpoint="/v1/rtt"} 0.25
fpsping_request_latency_seconds_count{endpoint="/v1/rtt"} 4
fpsping_request_latency_seconds{endpoint="/v1/rtt",quantile="0.99"} 0.125
some_future_family{endpoint="/v1/rtt"} 3
fpsping_requests_total_sum 1
  fpsping_cache_entries 6
fpsrouter_breaker_open{replica="http://h:1"} 1
`
	got, err := Parse([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	want := []Sample{
		{Family: Uptime, Value: 12.5},
		{Family: RequestLatency, Suffix: "_sum", Label: "/v1/rtt", Value: 0.25},
		{Family: RequestLatency, Suffix: "_count", Label: "/v1/rtt", Value: 4},
		{Family: RequestLatency, Label: "/v1/rtt", Quantile: "0.99", Value: 0.125},
		{Family: CacheEntries, Value: 6},
		{Family: BreakerOpen, Label: "http://h:1", Value: 1},
	}
	if !slices.Equal(got, want) {
		t.Errorf("Parse:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"what even is this", "fpsping_requests_total NaNx", "{x=\"1\"} 2"} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestTableNamesResolveUniquely pins that no two declarations claim the
// same sample name, counting a summary's _sum and _count samples, so every
// sample belongs to exactly one family.
func TestTableNamesResolveUniquely(t *testing.T) {
	want := 0
	for _, d := range table {
		want++
		if d.kind == "summary" {
			want += 2
		}
		if d.kind != "counter" && d.kind != "gauge" && d.kind != "summary" {
			t.Errorf("%s has type %q", d.name, d.kind)
		}
	}
	if len(byName) != want {
		t.Errorf("%d names resolve for %d declared sample names: a declaration collides", len(byName), want)
	}
}

// TestObserveDoesNotAllocate pins the per-request cost: once an endpoint's
// series exists, Observe allocates nothing.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 10; i++ {
		r.Observe("/v1/rtt", time.Millisecond, false, false)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Observe("/v1/rtt", 2*time.Millisecond, true, false) }); n != 0 {
		t.Errorf("Observe allocates %.1f times per request", n)
	}
}

// TestRecorderConcurrent observes from several goroutines while scrapes
// run, then checks no request was lost; run it under -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Observe([]string{"/v1/rtt", "/v1/sweep"}[i%2], time.Millisecond, i%5 == 0, false)
				if i%100 == 0 {
					var p Page
					r.Collect(&p)
				}
			}
		}()
	}
	wg.Wait()
	var p Page
	r.Collect(&p)
	page := p.String()
	for _, want := range []string{
		"fpsping_requests_total 4000\n",
		`fpsping_requests_total{endpoint="/v1/rtt"} 2000`,
		"fpsping_cache_hits_total 800\n",
		"fpsping_request_latency_seconds_count 4000\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page lacks %q:\n%s", want, page)
		}
	}
}

// BenchmarkMetricsObserve measures the Observe call every instrumented
// request makes, from parallel goroutines spread over the model endpoints.
func BenchmarkMetricsObserve(b *testing.B) {
	r := NewRecorder()
	endpoints := []string{"/v1/rtt", "/v1/rtt:batch", "/v1/sweep", "/v1/dimension"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			r.Observe(endpoints[i%len(endpoints)], time.Duration(i%997)*time.Microsecond, i%3 == 0, i%50 == 0)
		}
	})
}
