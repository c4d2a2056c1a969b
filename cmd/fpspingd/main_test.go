package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	var errOut strings.Builder
	cfg, err := parseFlags(nil, &errOut)
	if err != nil {
		t.Fatalf("defaults rejected: %v (%s)", err, errOut.String())
	}
	if cfg.addr != "127.0.0.1:7900" || cfg.drain != 10*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.pprofAddr != "" {
		t.Errorf("pprof is on by default: %+v", cfg)
	}
	if cfg.jobs < 1 || cfg.cacheSize < 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestParseFlagsPprof(t *testing.T) {
	cfg, err := parseFlags([]string{"-pprof", "127.0.0.1:6060"}, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.pprofAddr != "127.0.0.1:6060" {
		t.Errorf("parsed = %+v", cfg)
	}
}

// TestParseFlagsRejectsNegatives pins the startup contract: a negative
// -cache or -jobs is a usage error, not a value to silently coerce into a
// default.
func TestParseFlagsRejectsNegatives(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "-1"},
		{"-jobs", "-4"},
	} {
		var errOut strings.Builder
		if _, err := parseFlags(args, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("args %v: error %v does not name the problem", args, err)
		}
		if !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("args %v: usage not printed:\n%s", args, errOut.String())
		}
	}
	// Zero still means "use the default" everywhere.
	if _, err := parseFlags([]string{"-cache", "0", "-jobs", "0"}, &strings.Builder{}); err != nil {
		t.Errorf("zero values rejected: %v", err)
	}
}

// TestParseFlagsHelpIsNotAnError pins that -h surfaces flag.ErrHelp (main
// exits 0 on it, not the usage-error 2).
func TestParseFlagsHelpIsNotAnError(t *testing.T) {
	var out strings.Builder
	_, err := parseFlags([]string{"-h"}, &out)
	if !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(out.String(), "-snapshot-interval") {
		t.Errorf("usage text missing flags:\n%s", out.String())
	}
}

// TestParseFlagsRejectsRetiredShards pins that the memo cache has no stripe
// knob any more: an old -shards is an unknown flag, not silently ignored.
func TestParseFlagsRejectsRetiredShards(t *testing.T) {
	var errOut strings.Builder
	if _, err := parseFlags([]string{"-shards", "8"}, &errOut); err == nil {
		t.Fatal("-shards accepted")
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -shards") {
		t.Errorf("-shards not reported as an unknown flag:\n%s", errOut.String())
	}
}
