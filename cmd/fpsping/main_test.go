package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpsping/internal/core"
)

func TestScenarioFromModelTranslation(t *testing.T) {
	m := core.DSLDefaults()
	m.Gamers = 50
	m.ServerPacketBytes = 125
	m.BurstInterval = 0.060
	m.ErlangOrder = 9
	cfg, err := scenarioFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gamers != 50 {
		t.Errorf("gamers = %d", cfg.Gamers)
	}
	if cfg.ClientSize.Mean() != 80 || cfg.ClientIAT.Mean() != 0.060 {
		t.Errorf("client laws %v/%v", cfg.ClientSize.Mean(), cfg.ClientIAT.Mean())
	}
	// Burst total preserves the Erlang mean N*PS.
	if math.Abs(cfg.BurstTotal.Mean()-50*125) > 1e-9 {
		t.Errorf("burst mean %v", cfg.BurstTotal.Mean())
	}
	if cfg.UpRate != m.UplinkAccessRate || cfg.AggRate != m.AggregateRate {
		t.Error("rates not forwarded")
	}
	if !cfg.ShuffleBurst {
		t.Error("shuffle should be on (uniform position assumption)")
	}
	// Invalid model is rejected.
	bad := m
	bad.ErlangOrder = 0
	if _, err := scenarioFromModel(bad); err == nil {
		t.Error("accepted invalid model")
	}
}

func TestWrap(t *testing.T) {
	s := wrap(strings.Repeat("word ", 30), 40, "  ")
	for _, line := range strings.Split(s, "\n") {
		if len(line) > 46 {
			t.Errorf("line too long: %q", line)
		}
	}
	if wrap("", 10, "") != "" {
		t.Error("empty wrap")
	}
}

func TestProfileFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	prof := profileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", "/tmp/cpu.out", "-memprofile", "/tmp/mem.out"}); err != nil {
		t.Fatal(err)
	}
	if *prof.cpu != "/tmp/cpu.out" || *prof.mem != "/tmp/mem.out" {
		t.Errorf("parsed %q / %q", *prof.cpu, *prof.mem)
	}
	// Defaults are off.
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	prof2 := profileFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *prof2.cpu != "" || *prof2.mem != "" {
		t.Error("profiling on by default")
	}
}

func TestProfileRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	prof := profileFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := prof.run(func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestProfileRunErrors(t *testing.T) {
	// The body's error survives profiling.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	prof := profileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := errors.New("boom")
	if err := prof.run(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("body error lost: %v", err)
	}
	// An uncreatable CPU profile path fails before the body runs.
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	prof2 := profileFlags(fs2)
	if err := fs2.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := prof2.run(func() error { ran = true; return nil }); err == nil {
		t.Error("bad cpuprofile path accepted")
	}
	if ran {
		t.Error("body ran despite profile setup failure")
	}
}

// TestSweepRangeBounded pins the CLI's sweep range check, shared with the
// daemon through core.CheckLoadGrid: an infinite bound and a step that
// would need a million points fail fast with core.ErrBadModel, and the
// 1000-point edge prints every point.
func TestSweepRangeBounded(t *testing.T) {
	for _, args := range [][]string{
		{"-to", "Inf"},
		{"-step", "1e-6"},
		{"-from", "0.05", "-to", "0.55", "-step", "0.0005"}, // 1000 points plus one
		{"-from", "NaN"},
	} {
		if err := cmdSweep(args); !errors.Is(err, core.ErrBadModel) {
			t.Errorf("sweep %v: err %v, want core.ErrBadModel", args, err)
		}
	}
	out := filepath.Join(t.TempDir(), "sweep.csv")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = cmdSweep([]string{"-from", "0.05", "-to", "0.5495", "-step", "0.0005", "-jobs", "2"})
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatalf("1000-point sweep: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1001 {
		t.Errorf("1000-point sweep printed %d lines, want a header and 1000 points", lines)
	}
}

// TestScenarioCommandsValidate: rtt, sweep, dimension and simulate reject
// the scenarios the daemon rejects, instead of silently modelling the
// default population for a negative load or printing a NaN delay.
func TestScenarioCommandsValidate(t *testing.T) {
	cmds := map[string]func([]string) error{
		"rtt": cmdRTT, "sweep": cmdSweep, "dimension": cmdDimension, "simulate": cmdSimulate,
	}
	for name, cmd := range cmds {
		for _, bad := range [][]string{
			{"-load", "-1"},
			{"-fixed", "NaN"},
			{"-q", "NaN"},
			{"-d", "-5"},
			{"-k", "201"},
		} {
			args := bad
			if name == "simulate" {
				args = append([]string{"-duration", "1"}, bad...)
			}
			if err := cmd(args); !errors.Is(err, core.ErrBadModel) {
				t.Errorf("%s %v: err %v, want core.ErrBadModel", name, args, err)
			}
		}
	}
}

// TestRTTPrintsEffectiveLevel: -q 0 selects the default level, and the
// report names the level it evaluated, not the flag's 0.
func TestRTTPrintsEffectiveLevel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rtt.txt")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = cmdRTT([]string{"-q", "0"})
	os.Stdout = stdout
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ms at %g\n", core.DefaultQuantile); !strings.Contains(string(data), want) {
		t.Errorf("rtt -q 0 output lacks %q:\n%s", want, data)
	}
}
