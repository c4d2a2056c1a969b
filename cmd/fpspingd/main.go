// Command fpspingd serves the ping-time model as a long-lived HTTP/JSON
// daemon: the operational counterpart of the fpsping CLI. An ISP or game
// operator can ask "what ping will gamers see at this load, and how many
// fit under 50 ms?" millions of times without re-running a computation —
// repeated scenarios are answered from an exact LRU memo cache
// (internal/memo; -cache entries).
//
// Endpoints (scenario parameters are the CLI flags, as JSON keys or query
// parameters — see internal/scenario):
//
//	POST /v1/rtt        {"gamers":80,"ps":125,"t":40,"k":9}    quantile + decomposition
//	GET  /v1/rtt?load=0.5&ps=125&t=60                          same, query form
//	POST /v1/rtt:batch  {"scenarios":[{...},{...}]}            many scenarios, one call
//	POST /v1/sweep      {"scenario":{...},"from":0.05,"to":0.9,"step":0.05}
//	POST /v1/dimension  {"scenario":{...},"bound_ms":50}       max load / max gamers
//	GET  /v1/models                                            built-in game traffic models
//	GET  /healthz                                              liveness + cache stats
//	GET  /metrics                                              Prometheus text format
//
// Responses are byte-identical at any -jobs value and across cache states;
// only latency (and X-Fpsping-Cache: hit|miss) reveals the cache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"fpsping/internal/runner"
	"fpsping/internal/service"
)

// config is the daemon's parsed command line.
type config struct {
	addr          string
	jobs          int
	cacheSize     int
	drain         time.Duration
	pprofAddr     string
	snapshot      string
	snapshotEvery time.Duration
}

// parseFlags parses and validates the command line. Nonsensical values are a
// usage error, not something to silently coerce: a typo like -cache -1 must
// fail loudly at startup, never boot a daemon with a surprise configuration.
// Zero keeps its documented "use the default" meaning throughout.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("fpspingd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7900", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&cfg.jobs, "jobs", runner.DefaultWorkers(),
		"worker pool size for batch and sweep fan-out (responses are identical at any value)")
	fs.IntVar(&cfg.cacheSize, "cache", service.DefaultCacheSize, "memo cache capacity in entries")
	fs.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&cfg.pprofAddr, "pprof", "",
		"serve net/http/pprof on this address (host:port; empty = disabled). Keep it loopback-only: the profiler is unauthenticated.")
	fs.StringVar(&cfg.snapshot, "snapshot", "",
		"cache snapshot path: loaded at boot if present (a stale or corrupt file boots cold, never fails), rewritten on graceful shutdown after the drain")
	fs.DurationVar(&cfg.snapshotEvery, "snapshot-interval", 0,
		"also rewrite -snapshot every interval while serving (0 = only on graceful shutdown), so a hard kill loses at most one interval of cache warmth")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.snapshotEvery < 0 {
		err := fmt.Errorf("fpspingd: -snapshot-interval %s is negative (0 disables periodic snapshots)", cfg.snapshotEvery)
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return cfg, err
	}
	if cfg.snapshotEvery > 0 && cfg.snapshot == "" {
		err := fmt.Errorf("fpspingd: -snapshot-interval needs -snapshot to name the file to write")
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return cfg, err
	}
	for _, f := range []struct {
		name  string
		value int
	}{{"jobs", cfg.jobs}, {"cache", cfg.cacheSize}} {
		if f.value < 0 {
			err := fmt.Errorf("fpspingd: -%s %d is negative (0 means the default)", f.name, f.value)
			fmt.Fprintln(stderr, err)
			fs.Usage()
			return cfg, err
		}
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		log.Fatal("fpspingd: ", err)
	}
}

func run(cfg config) error {
	// One process-wide budget: nested fan-outs (a batch of sweeps) share
	// -jobs instead of multiplying it.
	runner.SetMaxParallel(cfg.jobs)
	engine := service.NewEngine(cfg.jobs, cfg.cacheSize)
	if cfg.snapshot != "" {
		loadSnapshot(engine, cfg.snapshot)
	}
	srv := service.NewServer(cfg.addr, engine)
	if err := srv.Listen(); err != nil {
		return err
	}
	log.Printf("fpspingd: listening on http://%s (jobs=%d cache=%d)",
		srv.Addr(), cfg.jobs, cfg.cacheSize)

	// The profiler gets its own listener and mux, never the service port: it
	// is off by default, unauthenticated when on, and must not change the
	// service API surface. A bad -pprof address is a startup error, not a
	// background log line.
	if cfg.pprofAddr != "" {
		ln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("fpspingd: pprof on http://%s/debug/pprof/", ln.Addr())
		go func() { _ = http.Serve(ln, mux) }() // lives and dies with the process
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()

	// Periodic snapshots bound what a hard kill (OOM, SIGKILL, power loss)
	// can cost: without them the cache only persists on graceful shutdown
	// and a killed daemon reboots cold. Dump holds the cache lock only
	// while copying entries out, so a snapshot under load does not stall
	// serving (see the dump-cost note on snapshotLoop).
	snapDone := make(chan struct{})
	if cfg.snapshot != "" && cfg.snapshotEvery > 0 {
		go func() {
			defer close(snapDone)
			snapshotLoop(ctx, engine, cfg.snapshot, cfg.snapshotEvery)
		}()
	} else {
		close(snapDone)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	// Flip /healthz to draining first so a router stops sending new traffic
	// while Shutdown waits on in-flight requests.
	srv.BeginDrain()
	log.Printf("fpspingd: draining (up to %s)", cfg.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The periodic writer stops at the signal; waiting for it here keeps the
	// post-drain snapshot below the last thing written, so the freshest,
	// fully-drained view always wins the rename race.
	<-snapDone
	if cfg.snapshot != "" {
		// After the drain: no in-flight requests are mutating the cache, so
		// the snapshot is a consistent view of everything this run computed.
		if err := writeSnapshot(engine, cfg.snapshot); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	return <-errc
}

// snapshotLoop rewrites the snapshot every interval until ctx is canceled.
// Each write is the same atomic temp+fsync+rename as the shutdown write, so
// a kill mid-write leaves the previous snapshot intact and a restarted
// daemon warms from a file at most one interval old. A failed write is
// logged and retried at the next tick — transient disk pressure must not
// kill a serving daemon. Measured dump cost (TestSnapshotDumpCost: full
// writeSnapshot including fsync, 256 entries / ~100 KB): ~7 ms, with the
// cache lock held only for the in-memory copy-out — serving sees at most a
// brief pause per tick, never the disk.
func snapshotLoop(ctx context.Context, engine *service.Engine, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := writeSnapshot(engine, path); err != nil {
				log.Printf("fpspingd: periodic snapshot: %v", err)
			}
		}
	}
}

// loadSnapshot warms the engine from a snapshot file. Any failure — no
// file yet, a schema stamp from another build, corruption — boots the
// daemon cold, logged but never fatal: a bad snapshot must not keep a
// deployment down.
func loadSnapshot(engine *service.Engine, path string) {
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("fpspingd: snapshot %s unreadable, booting cold: %v", path, err)
		}
		return
	}
	defer f.Close()
	st, err := engine.WarmCache(f)
	if err != nil {
		log.Printf("fpspingd: snapshot %s rejected, booting cold: %v", path, err)
		return
	}
	log.Printf("fpspingd: warmed %d cache entries from %s", st.Restored, path)
}

// writeSnapshot dumps the engine cache to path atomically: written to a
// temp file in the same directory, fsynced, then renamed over path — a
// crash mid-write leaves the previous snapshot intact.
func writeSnapshot(engine *service.Engine, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	st, err := engine.DumpCache(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	log.Printf("fpspingd: wrote snapshot %s (%d entries, %d bytes)", path, st.Entries, st.Bytes)
	return nil
}
