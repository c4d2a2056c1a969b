package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpsping/internal/cluster"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-replicas", "http://a:1, http://b:2 ,http://c:3",
		"-policy", "random", "-vnodes", "128", "-load-factor", "1.25",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:2", "http://c:3"}; strings.Join(cfg.replicas, "|") != strings.Join(want, "|") {
		t.Errorf("replicas = %v, want %v", cfg.replicas, want)
	}
	if cfg.policy != "random" || cfg.vnodes != 128 || cfg.loadFactor != 1.25 {
		t.Errorf("parsed %+v", cfg)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := [][]string{
		{},                   // no replicas, no -sim
		{"-replicas", " , "}, // only blanks
		{"-replicas", "http://a", "-vnodes", "0"},
		{"-replicas", "http://a", "-vnodes", "999999"},
		{"-replicas", "http://a", "-load-factor", "0.9"},
		{"-sim", "-sim-requests", "-5"},
	}
	for i, args := range cases {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
	if _, err := parseFlags([]string{"-sim"}, io.Discard); err != nil {
		t.Errorf("-sim without -replicas must be valid: %v", err)
	}
}

// TestSimGolden pins the default simulator comparison byte for byte against
// the committed golden file, at two worker counts. This is the same contract
// the paper report has: any change to the simulator, the ring hash or the
// policies that shifts a number must come with a refreshed golden file.
func TestSimGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "cluster-sim.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 4} {
		cfg, err := parseFlags([]string{"-sim", "-sim-jobs", map[int]string{1: "1", 4: "4"}[jobs]}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runSim(cfg, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Errorf("-sim-jobs %d output differs from testdata/golden/cluster-sim.txt:\n%s", jobs, out.String())
		}
	}
}

// TestSimJSON checks the machine-readable form parses back into a
// Comparison whose affinity result beats random — the ordering the CI
// cluster gate checks the real topology against.
func TestSimJSON(t *testing.T) {
	cfg, err := parseFlags([]string{"-sim", "-sim-json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSim(cfg, &out); err != nil {
		t.Fatal(err)
	}
	var cmp cluster.Comparison
	if err := json.Unmarshal(out.Bytes(), &cmp); err != nil {
		t.Fatal(err)
	}
	var aff, rnd *cluster.SimResult
	for i, r := range cmp.Results {
		switch r.Policy {
		case cluster.PolicyAffinity:
			aff = &cmp.Results[i]
		case cluster.PolicyRandom:
			rnd = &cmp.Results[i]
		}
	}
	if aff == nil || rnd == nil {
		t.Fatal("JSON comparison missing a policy")
	}
	if aff.HitRatio <= rnd.HitRatio {
		t.Errorf("JSON report: affinity %.4f <= random %.4f", aff.HitRatio, rnd.HitRatio)
	}
}

// TestSimOverrides checks the -sim-* overrides reach the simulator config.
func TestSimOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{"-sim", "-sim-json", "-sim-replicas", "5", "-sim-requests", "2000", "-sim-seed", "9"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSim(cfg, &out); err != nil {
		t.Fatal(err)
	}
	var cmp cluster.Comparison
	if err := json.Unmarshal(out.Bytes(), &cmp); err != nil {
		t.Fatal(err)
	}
	if cmp.Config.Replicas != 5 || cmp.Config.Requests != 2000 || cmp.Config.Seed != 9 {
		t.Errorf("overrides not applied: %+v", cmp.Config)
	}
}
