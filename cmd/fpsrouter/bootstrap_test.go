package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fpsping/internal/cluster"
	"fpsping/internal/service"
)

func TestParseFlagsBootstrap(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-replicas", "http://a:1,http://b:2,http://c:3",
		"-bootstrap", "http://c:3", "-bootstrap-json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.bootstrap != "http://c:3" || !cfg.bootstrapJSON {
		t.Errorf("parsed %+v", cfg)
	}
}

func TestParseFlagsBootstrapRejects(t *testing.T) {
	cases := [][]string{
		// Target not in the replica set: ownership would be computed over a
		// ring the router never runs.
		{"-replicas", "http://a:1,http://b:2", "-bootstrap", "http://c:3"},
		// No donors.
		{"-replicas", "http://a:1", "-bootstrap", "http://a:1"},
	}
	for i, args := range cases {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
}

// TestRunBootstrapLive drives the one-shot bootstrap mode end to end: a
// filled donor, a fresh target, and the JSON report confirming entries
// moved to where the post-join ring says they belong.
func TestRunBootstrapLive(t *testing.T) {
	boot := func() (*service.Engine, string) {
		eng := service.NewEngine(1, 0)
		srv := httptest.NewServer(service.NewServer("127.0.0.1:0", eng).Handler())
		t.Cleanup(srv.Close)
		return eng, srv.URL
	}
	_, donorURL := boot()
	targetEng, targetURL := boot()
	for g := 60; g < 80; g++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/rtt?gamers=%d", donorURL, g))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	cfg, err := parseFlags([]string{
		"-replicas", donorURL + "," + targetURL,
		"-bootstrap", targetURL, "-bootstrap-json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runBootstrap(cfg, &out); err != nil {
		t.Fatalf("runBootstrap: %v", err)
	}
	var report cluster.BootstrapReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if report.Target != targetURL || len(report.Donors) != 1 {
		t.Fatalf("implausible report: %+v", report)
	}
	if report.Restored == 0 {
		t.Fatalf("bootstrap moved nothing (donor kept %d): %+v", report.Donors[0].Kept, report)
	}
	if entries := targetEng.CacheStats().Entries; entries != report.CacheEntries {
		t.Errorf("target cache has %d entries, report says %d", entries, report.CacheEntries)
	}
	if n := targetEng.Computes(); n != 0 {
		t.Errorf("bootstrap caused %d computations on the target", n)
	}
}
