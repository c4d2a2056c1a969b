package load

import (
	"strings"
	"testing"

	"fpsping/internal/client"
)

// probeAt is a replica scrape at the given uptime: rtt requests, hits of
// them from cache, and computes model evaluations so far.
func probeAt(uptime float64, rtt, hits, computes uint64) replicaProbe {
	return replicaProbe{
		addr: "http://replica:1",
		metrics: client.MetricsSnapshot{
			UptimeSeconds: uptime,
			Endpoints:     map[string]client.EndpointMetrics{"/v1/rtt": {Requests: rtt, CacheHits: hits}},
		},
		health: replicaHealth{Computations: computes, CacheEntries: 7, Ready: true},
	}
}

func TestReplicaDeltaAcrossRestarts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pre, post replicaProbe
		want      ReplicaReport // zero when the delta must fail
	}{
		{"steady", probeAt(10, 100, 40, 60), probeAt(20, 150, 80, 70),
			ReplicaReport{Addr: "http://replica:1", Requests: 50, Hits: 40, Computations: 10, CacheEntries: 7, Ready: true}},
		{"idle", probeAt(10, 100, 40, 60), probeAt(20, 100, 40, 60),
			ReplicaReport{Addr: "http://replica:1", CacheEntries: 7, Ready: true}},
		// Restarted and served a little: every subtraction would wrap.
		{"counters reset", probeAt(10, 100, 40, 60), probeAt(2, 5, 1, 4), ReplicaReport{}},
		// Restarted and served more than before: the uptime betrays it.
		{"uptime reset", probeAt(100, 10, 4, 6), probeAt(30, 500, 300, 200), ReplicaReport{}},
		// A warm restart restores the cache, so hits may keep climbing while
		// the compute count starts over.
		{"computations reset", probeAt(10, 100, 40, 60), probeAt(20, 150, 90, 3), ReplicaReport{}},
	} {
		post := tc.post
		got, err := post.since(tc.pre)
		if tc.want == (ReplicaReport{}) {
			if err == nil || !strings.Contains(err.Error(), "restarted") {
				t.Errorf("%s: got %+v, %v; want a restart error", tc.name, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
}
