// mousebench regenerates the tables and figures of the MOUSE paper's
// evaluation (Sections VIII–IX).
//
// Usage:
//
//	mousebench [-experiment all|table1|table2|table3|table4|fig9|fig10|fig11|fig12|
//	            crossover|robustness|checkpoint|parallelism|fft|batch|segment|fleet]
//	           [-parallel N] [-json [-normalize]] [-telemetry] [-progress]
//	           [-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints the same rows or series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison. Every experiment
// is computed once into a report; tables and -json are two renderings
// of the same rows, and the rows hold simulation output only (host
// speeds are measured by `go test -bench` and perfbench). Grid-shaped
// experiments run on a worker pool bounded by -parallel (default: one
// worker per CPU); results are identical at any parallelism. -json
// replaces the tables with a machine-readable report (schema documented
// in EXPERIMENTS.md); -out writes the output to a file instead of
// stdout, e.g. `mousebench -json -out BENCH.json` to record a
// perf-trajectory snapshot. -normalize (with -json) strips the
// host-dependent fields — parallelism, wall times, meta and telemetry —
// as Report.Normalize does, so two runs' simulation output can be
// compared byte for byte.
//
// -telemetry attaches a shared probe.Stats observer to every simulation
// the selected experiments run: with -json the report gains the
// optional "telemetry" section (replays, outage durations, energy by
// phase); in table mode a summary block is appended after the tables.
//
// -progress reports each experiment's start and finish (with row count
// and wall time) live on stderr while the run executes, leaving stdout
// bytes untouched — useful when `-experiment all` takes a while and the
// tables only appear at the end.
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiments (CPU sampled across the run; heap captured at the end),
// so perf PRs can attach `go tool pprof` evidence for the paths they
// touch.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"mouse/internal/bench"
	"mouse/internal/probe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", err)
		os.Exit(1)
	}
}

// run is mousebench with its arguments and streams: stdout receives the
// tables or report (unless -out names a file), stderr flag usage and
// the -progress feed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mousebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "which experiment to run")
	parallel := fs.Int("parallel", 0, "sweep worker bound; 0 means one per CPU")
	asJSON := fs.Bool("json", false, "emit a machine-readable report instead of tables")
	normalize := fs.Bool("normalize", false, "with -json, drop host-dependent report fields (parallelism, wall time, meta, telemetry)")
	telemetry := fs.Bool("telemetry", false, "collect run telemetry (replays, outages, energy by phase)")
	progress := fs.Bool("progress", false, "report per-experiment start/finish lines live on stderr")
	outPath := fs.String("out", "", "write output to this file instead of stdout")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	progressTo := io.Writer(nil)
	if *progress {
		progressTo = stderr
	}
	runErr := runExperiments(options{
		experiment: *experiment, workers: *parallel,
		asJSON: *asJSON, normalize: *normalize, telemetry: *telemetry,
	}, out, progressTo)
	if err := stop(); err != nil {
		return err
	}
	return runErr
}

// startProfiles begins CPU profiling (when requested) and returns a
// stop function that finishes the CPU profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// options selects what runExperiments builds and how it renders it.
type options struct {
	experiment string // one experiment's name, or "all"
	workers    int    // sweep-worker bound; <= 0 means one per CPU
	asJSON     bool   // the structured report instead of tables
	normalize  bool   // with asJSON, drop host-dependent fields
	telemetry  bool   // share a probe.Stats across every simulation
}

// runExperiments builds the report of the selected experiment (or all
// of them) with the given sweep-worker bound and writes it to out as
// tables — or, with asJSON, as the structured report, normalized on
// request. telemetry attaches a shared probe.Stats to every simulation
// and reports its totals. A non-nil progressTo receives one live line
// per experiment start/finish (the -progress stderr feed); it never
// receives table or report bytes.
func runExperiments(o options, out, progressTo io.Writer) error {
	if o.normalize && !o.asJSON {
		return fmt.Errorf("-normalize applies to -json reports only")
	}
	var prog bench.Progress
	if progressTo != nil {
		prog = bench.NewProgressWriter(progressTo)
	}
	var obs []probe.Observer
	stats := &probe.Stats{}
	if o.telemetry {
		obs = append(obs, stats)
	}
	rep, err := bench.BuildReport(o.experiment, o.workers, prog, obs...)
	if err != nil {
		return err
	}
	if o.telemetry {
		rep.Telemetry = stats.Section()
	}
	if !o.asJSON {
		return rep.WriteTables(out)
	}
	if o.normalize {
		rep.Normalize()
	}
	return rep.WriteJSON(out)
}
