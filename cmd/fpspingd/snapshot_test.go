package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpsping/internal/scenario"
	"fpsping/internal/service"
)

func TestParseFlagsSnapshot(t *testing.T) {
	cfg, err := parseFlags([]string{"-snapshot", "/tmp/cache.snap"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.snapshot != "/tmp/cache.snap" {
		t.Errorf("snapshot path %q", cfg.snapshot)
	}
	if cfg.snapshotEvery != 0 {
		t.Errorf("periodic snapshots on by default: %v", cfg.snapshotEvery)
	}
}

// TestParseFlagsSnapshotInterval pins the periodic-snapshot contract at the
// flag layer: the interval parses as a duration, needs -snapshot to name a
// file, and a negative value is a usage error like every other flag here.
func TestParseFlagsSnapshotInterval(t *testing.T) {
	cfg, err := parseFlags([]string{"-snapshot", "/tmp/c.snap", "-snapshot-interval", "30s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.snapshotEvery != 30*time.Second {
		t.Errorf("interval = %v, want 30s", cfg.snapshotEvery)
	}
	var errOut strings.Builder
	if _, err := parseFlags([]string{"-snapshot-interval", "30s"}, &errOut); err == nil {
		t.Error("-snapshot-interval without -snapshot accepted")
	} else if !strings.Contains(err.Error(), "-snapshot") {
		t.Errorf("error %v does not name the missing flag", err)
	}
	errOut.Reset()
	if _, err := parseFlags([]string{"-snapshot", "/tmp/c.snap", "-snapshot-interval", "-5s"}, &errOut); err == nil {
		t.Error("negative -snapshot-interval accepted")
	} else if !strings.Contains(err.Error(), "negative") {
		t.Errorf("error %v does not name the problem", err)
	}
}

// TestSnapshotLoopWritesPeriodically drives the timer loop in process: a
// warmed engine, a tiny interval, and a cancel. The loop must produce a
// loadable snapshot while the daemon would still be serving — the property
// that makes a SIGKILL'd daemon boot warm — and stop cleanly on cancel.
func TestSnapshotLoopWritesPeriodically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	eng := service.NewEngine(1, 0)
	sc := scenario.Default()
	want, _, err := eng.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		snapshotLoop(ctx, eng, path, 2*time.Millisecond)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("snapshot loop wrote nothing")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done // any in-flight write has finished: the file is a complete snapshot
	warmed := service.NewEngine(1, 0)
	loadSnapshot(warmed, path)
	got, cached, err := warmed.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("engine warmed from a periodic snapshot answered cold")
	}
	if got != want {
		t.Errorf("warmed answer differs: %+v vs %+v", got, want)
	}
}

// TestSnapshotDumpCost measures what one periodic snapshot costs with a
// populated cache, so the dump-cost note on snapshotLoop stays a measured
// number, not folklore. It only reports; the interval choice is the
// operator's.
func TestSnapshotDumpCost(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement only")
	}
	eng := service.NewEngine(0, 4096)
	sc := scenario.Default()
	for g := 2; g <= 129; g++ { // gamers=1 is a degenerate model the engine rejects
		sc.Gamers = float64(g)
		if _, _, err := eng.RTT(sc); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "cache.snap")
	start := time.Now()
	if err := writeSnapshot(eng, path); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	entries := eng.CacheStats().Entries
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dump of %d entries (%d bytes): %v", entries, fi.Size(), elapsed)
}

// TestSnapshotLifecycle drives the daemon's drain-and-reboot persistence
// path in process: write the snapshot the way shutdown does, load it the
// way boot does, and check the warmed engine answers from cache with zero
// computations.
func TestSnapshotLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	donor := service.NewEngine(1, 0)
	sc := scenario.Default()
	want, _, err := donor.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(donor, path); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}

	warmed := service.NewEngine(1, 0)
	loadSnapshot(warmed, path)
	got, cached, err := warmed.RTT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("warmed engine answered cold")
	}
	if got != want {
		t.Errorf("warmed answer differs: %+v vs %+v", got, want)
	}
	if n := warmed.Computes(); n != 0 {
		t.Errorf("warmed engine ran %d computations, want 0", n)
	}
}

// TestLoadSnapshotToleratesBadFiles: a missing, unreadable or corrupt
// snapshot boots cold — logged, never fatal, never a partial cache.
func TestLoadSnapshotToleratesBadFiles(t *testing.T) {
	dir := t.TempDir()
	eng := service.NewEngine(1, 0)
	loadSnapshot(eng, filepath.Join(dir, "absent.snap"))

	garbage := filepath.Join(dir, "garbage.snap")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	loadSnapshot(eng, garbage)
	if entries := eng.CacheStats().Entries; entries != 0 {
		t.Errorf("bad snapshot left %d entries", entries)
	}
	// The engine still works after both failures.
	if _, _, err := eng.RTT(scenario.Default()); err != nil {
		t.Errorf("engine broken after rejected snapshots: %v", err)
	}
}

// TestWriteSnapshotAtomic: the write goes through a temp file and rename,
// so a prior snapshot survives and no temp litter is left behind.
func TestWriteSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	eng := service.NewEngine(1, 0)
	if _, _, err := eng.RTT(scenario.Default()); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(eng, path); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(eng, path); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("snapshot dir not clean: %v", names)
	}
}
