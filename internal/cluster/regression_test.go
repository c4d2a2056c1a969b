package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpsping/internal/client"
)

// oversizedReplica answers /v1/rtt with a body of the given size, larger
// than the response cap the router's forwarding reads through.
func oversizedReplica(t *testing.T, size int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(strings.Repeat("x", size)))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// capReplicaBody lowers the client's response cap, which the router's
// forwarding reads through, for the duration of the test so an
// "oversized" body is kilobytes, not 64 MB.
func capReplicaBody(t *testing.T, n int64) {
	t.Helper()
	old := client.MaxResponseBytes
	client.MaxResponseBytes = n
	t.Cleanup(func() { client.MaxResponseBytes = old })
}

// TestRouterRejectsTruncatedReplicaBody pins the over-limit check the
// router's forwarding gets from client.Exchange: a replica response at the
// cap used to be silently truncated and forwarded as a complete body; it
// must instead be a transport error — a 502 when no other replica can
// answer.
func TestRouterRejectsTruncatedReplicaBody(t *testing.T) {
	capReplicaBody(t, 4096)
	big := oversizedReplica(t, int(client.MaxResponseBytes)+100)
	rt, err := NewRouter(RouterConfig{Replicas: []string{big.URL}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, body := get(t, front.URL+"/v1/rtt?gamers=60")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("oversized replica body: status %d (len %d), want 502", resp.StatusCode, len(body))
	}
	if !strings.Contains(body, "over") {
		t.Errorf("502 body does not name the over-limit cause: %s", body)
	}
}

// TestRouterFailsOverOnTruncatedReplicaBody: the oversized answer must
// trigger failover like any transport error, so a healthy peer's complete
// body wins.
func TestRouterFailsOverOnTruncatedReplicaBody(t *testing.T) {
	capReplicaBody(t, 4096)
	big := oversizedReplica(t, int(client.MaxResponseBytes)+100)
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"replica":"good"}`))
	}))
	defer good.Close()

	rt, err := NewRouter(RouterConfig{Replicas: []string{big.URL, good.URL}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a scenario the oversized replica owns, so the failover path (not
	// first-choice routing) is what produces the good answer.
	gamers := -1
	for g := 60; g < 600; g++ {
		if rt.ring.Owner(keyFor(t, g)) == 0 {
			gamers = g
			break
		}
	}
	if gamers < 0 {
		t.Fatal("no key owned by the oversized replica")
	}
	resp, body := get(t, fmt.Sprintf("%s/v1/rtt?gamers=%d", front.URL, gamers))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover: %s", resp.StatusCode, body)
	}
	if body != `{"replica":"good"}` {
		t.Errorf("unexpected failover body: %s", body)
	}
	if resp.Header.Get(ReplicaHeader) != good.URL {
		t.Errorf("replica header %q, want the healthy peer", resp.Header.Get(ReplicaHeader))
	}
	if rt.retries.Load() == 0 {
		t.Error("failover did not count a retry")
	}
}
