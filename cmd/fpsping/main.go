// Command fpsping is the front door to the ping-time model: it computes RTT
// quantiles for access-network gaming scenarios (the paper's §4), sweeps
// load curves, dimensions links, regenerates every paper table and figure,
// runs the packet-level simulator against the analytic model, and analyzes
// packet traces.
//
// Usage:
//
//	fpsping rtt        [flags]   one scenario's RTT quantile + decomposition
//	fpsping sweep      [flags]   RTT-vs-load series as CSV
//	fpsping dimension  [flags]   max load / max gamers under an RTT bound
//	fpsping experiments [-id x]  regenerate paper tables and figures
//	fpsping all        [-jobs n] the complete report, fully parallel
//	fpsping simulate   [flags]   packet-level simulation vs the model
//	fpsping analyze    -file f   Table-3 statistics of a trace CSV
//	fpsping models               list the built-in game traffic models
//
// Heavy commands (sweep, experiments, all) take -jobs to bound the worker
// pool (default: one per CPU); output is byte-identical at any -jobs value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fpsping/internal/core"
	"fpsping/internal/dist"
	"fpsping/internal/experiments"
	"fpsping/internal/netsim"
	"fpsping/internal/runner"
	"fpsping/internal/scenario"
	"fpsping/internal/trace"
	"fpsping/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "rtt":
		err = cmdRTT(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "dimension":
		err = cmdDimension(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fpsping: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpsping:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `fpsping - ping times in First Person Shooter games (CWI PNA-R0608 reproduction)

commands:
  rtt          compute one scenario's RTT quantile and its decomposition
  sweep        print an RTT-vs-load series as CSV
  dimension    maximum load and gamer count under an RTT bound
  experiments  regenerate the paper's tables and figures (-id to pick one)
  all          emit the complete report, all artifacts in parallel
  simulate     run the packet-level simulator and compare with the model
  analyze      compute Table-3 statistics from a trace CSV
  models       list built-in game traffic models

run 'fpsping <command> -h' for flags. Scenario flags (-gamers, -ps, -t, ...)
are shared verbatim with the fpspingd daemon's JSON/query parameters: the
same scenario definition works on both (see internal/scenario and README).
`)
}

// parseScenario parses the command's flags and validates the scenario they
// set exactly as the daemon validates a request's, so a negative load or a
// NaN parameter fails here instead of modelling something else.
func parseScenario(fs *flag.FlagSet, args []string, sc *scenario.Scenario) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	return sc.Validate()
}

// jobsFlag installs the shared -jobs worker-pool flag.
func jobsFlag(fs *flag.FlagSet) *int {
	return fs.Int("jobs", runner.DefaultWorkers(),
		"worker pool size for parallel work (output is identical at any value)")
}

// profileConfig holds the shared -cpuprofile/-memprofile flag values.
type profileConfig struct {
	cpu, mem *string
}

// profileFlags installs the shared profiling flags on a command's flag set.
func profileFlags(fs *flag.FlagSet) *profileConfig {
	return &profileConfig{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the command body to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file when the command finishes"),
	}
}

// run executes a command body under the requested profiles. The profiles
// cover the body only (flag parsing and setup are excluded); the heap
// profile is taken after a final GC so it reflects retained memory rather
// than transient garbage. Profile write errors are reported alongside the
// body's error so a truncated profile is never silent.
func (p *profileConfig) run(body func() error) error {
	var cpu *os.File
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpu = f
	}
	errs := []error{body()}
	if cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, cpu.Close())
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			errs = append(errs, err)
		} else {
			runtime.GC()
			errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
		}
	}
	return errors.Join(errs...)
}

func cmdRTT(args []string) error {
	fs := flag.NewFlagSet("rtt", flag.ExitOnError)
	sc := scenario.Flags(fs)
	prof := profileFlags(fs)
	if err := parseScenario(fs, args, sc); err != nil {
		return err
	}
	return prof.run(func() error {
		m := sc.Model()
		cm, err := m.Compile()
		if err != nil {
			return err
		}
		comp, err := cm.Decompose()
		if err != nil {
			return err
		}
		fmt.Printf("scenario      %s\n", m)
		fmt.Printf("downlink load %.1f%%   uplink load %.1f%%\n", 100*m.DownlinkLoad(), 100*m.UplinkLoad())
		fmt.Printf("mean RTT      %8.2f ms\n", 1000*cm.MeanRTT())
		fmt.Printf("RTT quantile  %8.2f ms at %g\n", 1000*comp.Total, m.QuantileLevel())
		fmt.Printf("  serialization  %8.3f ms\n", 1000*comp.Serialization)
		if comp.Fixed > 0 {
			fmt.Printf("  fixed          %8.3f ms\n", 1000*comp.Fixed)
		}
		fmt.Printf("  upstream  q    %8.3f ms (isolated quantile)\n", 1000*comp.Upstream)
		fmt.Printf("  burst-wait q   %8.3f ms (isolated quantile)\n", 1000*comp.BurstWait)
		fmt.Printf("  position  q    %8.3f ms (isolated quantile)\n", 1000*comp.Position)
		return nil
	})
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	sc := scenario.Flags(fs)
	from := fs.Float64("from", 0.05, "first downlink load")
	to := fs.Float64("to", 0.90, "last downlink load")
	step := fs.Float64("step", 0.05, "load step")
	jobs := jobsFlag(fs)
	prof := profileFlags(fs)
	if err := parseScenario(fs, args, sc); err != nil {
		return err
	}
	loads, err := core.CheckLoadGrid(*from, *to, *step)
	if err != nil {
		return err
	}
	return prof.run(func() error {
		m := sc.Model()
		pts, err := m.SweepLoads(loads, *jobs)
		if err != nil {
			return err
		}
		fmt.Println("load,gamers,rtt_ms")
		for _, p := range pts {
			fmt.Printf("%.4f,%.2f,%.3f\n", p.Load, p.Gamers, 1000*p.RTT)
		}
		return nil
	})
}

func cmdDimension(args []string) error {
	fs := flag.NewFlagSet("dimension", flag.ExitOnError)
	sc := scenario.Flags(fs)
	bound := fs.Float64("bound", 50, "RTT bound [ms]")
	prof := profileFlags(fs)
	if err := parseScenario(fs, args, sc); err != nil {
		return err
	}
	return prof.run(func() error {
		m := sc.Model()
		res, err := m.MaxLoad(*bound / 1000)
		if err != nil {
			return err
		}
		fmt.Printf("scenario          %s\n", m)
		fmt.Printf("RTT bound         %.1f ms\n", *bound)
		fmt.Printf("max downlink load %.1f%%\n", 100*res.MaxDownlinkLoad)
		fmt.Printf("max gamers        %d\n", res.MaxGamers)
		fmt.Printf("RTT at max load   %.2f ms\n", 1000*res.RTTAtMax)
		return nil
	})
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	id := fs.String("id", "all", "experiment id (see 'fpsping experiments -id list')")
	csvDir := fs.String("csv", "", "also write figure series as CSV into this directory")
	jobs := jobsFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "list" {
		for _, e := range experiments.Index() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return nil
	}
	emit := func(e experiments.Entry, res experiments.Renderer) error {
		fmt.Println(res.Render())
		if *csvDir != "" {
			if c, ok := res.(experiments.CSVer); ok {
				path := *csvDir + string(os.PathSeparator) + e.ID + ".csv"
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := experiments.WriteCSV(f, c); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n\n", path)
			}
		}
		return nil
	}
	return prof.run(func() error {
		if *id == "all" {
			// Run every artifact concurrently, then emit in presentation order.
			// Artifacts that succeeded are printed even when others failed, so a
			// broken experiment doesn't discard the rest of the run.
			runner.SetMaxParallel(*jobs)
			idx := experiments.Index()
			results, errs := runner.TryMap(len(idx), runner.Options{Workers: *jobs},
				func(i int) (experiments.Renderer, error) {
					return idx[i].Run(*jobs)
				})
			var failed []error
			for i, e := range idx {
				if errs[i] != nil {
					failed = append(failed, fmt.Errorf("%s: %w", e.ID, errs[i]))
					continue
				}
				if err := emit(e, results[i]); err != nil {
					return err
				}
			}
			return errors.Join(failed...)
		}
		e, err := experiments.Find(*id)
		if err != nil {
			return err
		}
		res, err := e.Run(*jobs)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		return emit(e, res)
	})
}

// cmdAll emits the complete report: every paper artifact regenerated
// concurrently (across artifacts and inside each one) and rendered in
// presentation order. The output is byte-identical at any -jobs value.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	jobs := jobsFlag(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return prof.run(func() error {
		report, err := experiments.Report(*jobs)
		fmt.Print(report) // on partial failure this is the successful sections
		return err
	})
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	sc := scenario.Default()
	sc.Load = 0.5 // simulate defaults to a half-loaded downlink
	sc.Register(fs)
	duration := fs.Float64("duration", 300, "simulated seconds")
	seed := fs.Uint64("seed", 1, "random seed")
	level := fs.Float64("simq", 0.999, "quantile level to compare (sim needs samples)")
	prof := profileFlags(fs)
	if err := parseScenario(fs, args, &sc); err != nil {
		return err
	}
	return prof.run(func() error {
		m := sc.Model()
		m.Quantile = *level
		pred, err := m.RTTQuantile()
		if err != nil {
			return err
		}
		cfg, err := scenarioFromModel(m)
		if err != nil {
			return err
		}
		s, err := netsim.NewScenario(cfg, *seed)
		if err != nil {
			return err
		}
		res, err := s.Run(*duration)
		if err != nil {
			return err
		}
		fmt.Printf("scenario        %s\n", m)
		fmt.Printf("simulated       %.0fs, %d RTT samples, %d events, %d drops\n",
			*duration, res.RTT.Summary.Count(), res.Events, res.Drops)
		fmt.Printf("mean RTT        sim %8.3f ms\n", 1000*res.RTT.Summary.Mean())
		if mean, err := m.MeanRTT(); err == nil {
			fmt.Printf("                model %6.3f ms\n", 1000*mean)
		}
		simQ, err := res.RTT.Quantile(*level)
		if err != nil {
			return fmt.Errorf("need a longer -duration for quantile %g: %w", *level, err)
		}
		fmt.Printf("p%v RTT      sim %8.3f ms\n", *level, 1000*simQ)
		fmt.Printf("                model %6.3f ms\n", 1000*pred)
		return nil
	})
}

// scenarioFromModel translates the analytic scenario into simulator config
// with the Erlang burst-total law.
func scenarioFromModel(m core.Model) (netsim.Config, error) {
	if err := m.Validate(); err != nil {
		return netsim.Config{}, err
	}
	gamers := int(m.Gamers + 0.5)
	if gamers < 1 {
		gamers = 1
	}
	erl, err := dist.ErlangByMean(m.ErlangOrder, float64(gamers)*m.ServerPacketBytes)
	if err != nil {
		return netsim.Config{}, err
	}
	d := m.BurstInterval
	if m.ClientInterval > 0 {
		d = m.ClientInterval
	}
	return netsim.Config{
		Gamers:       gamers,
		ClientSize:   dist.NewDeterministic(m.ClientPacketBytes),
		ClientIAT:    dist.NewDeterministic(d),
		BurstTotal:   erl,
		BurstIAT:     dist.NewDeterministic(m.BurstInterval),
		UpRate:       m.UplinkAccessRate,
		DownRate:     m.DownlinkAccessRate,
		AggRate:      m.AggregateRate,
		ShuffleBurst: true,
	}, nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	file := fs.String("file", "", "trace CSV (as written by the netsim capture)")
	gap := fs.Float64("gap", 10, "burst grouping gap threshold [ms]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("analyze: -file required")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}
	ts, err := trace.Analyze(tr, *gap/1000)
	if err != nil {
		return err
	}
	fmt.Printf("%d records over %.1fs\n\n", tr.Len(), tr.Duration())
	fmt.Print(ts.FormatTable())
	return nil
}

func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, m := range traffic.AllModels() {
		fmt.Printf("%s\n  source: %s\n", m.Name, m.Source)
		fmt.Printf("  server: size %s every %s (%.1f kbit/s for 12 players)\n",
			m.Server.PacketSize, m.Server.IAT, m.OfferedDownstreamBitRate(12)/1000)
		for _, f := range m.Client {
			fmt.Printf("  client %-20s size %s every %s (%.1f kbit/s)\n",
				f.Name+":", f.Size, f.IAT, f.MeanRateBitPerSec()/1000)
		}
		fmt.Printf("  notes: %s\n\n", wrap(m.Notes, 76, "         "))
	}
	return nil
}

func wrap(s string, width int, indent string) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	for i, w := range words {
		if line+len(w)+1 > width && line > 0 {
			b.WriteString("\n")
			b.WriteString(indent)
			line = 0
		} else if i > 0 {
			b.WriteString(" ")
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}
