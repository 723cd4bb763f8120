// mousebench regenerates the tables and figures of the MOUSE paper's
// evaluation (Sections VIII–IX).
//
// Usage:
//
//	mousebench [-experiment all|table1|table2|table3|table4|fig9|fig10|fig11|fig12|
//	            crossover|robustness|checkpoint|parallelism|fft|batch|segment|fleet]
//	           [-parallel N] [-json] [-telemetry] [-progress]
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
// perf-trajectory snapshot.
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
	experiment := flag.String("experiment", "all", "which experiment to run")
	parallel := flag.Int("parallel", 0, "sweep worker bound; 0 means one per CPU")
	asJSON := flag.Bool("json", false, "emit a machine-readable report instead of tables")
	telemetry := flag.Bool("telemetry", false, "collect run telemetry (replays, outages, energy by phase)")
	progress := flag.Bool("progress", false, "report per-experiment start/finish lines live on stderr")
	outPath := flag.String("out", "", "write output to this file instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mousebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", err)
		os.Exit(1)
	}
	progressTo := io.Writer(nil)
	if *progress {
		progressTo = os.Stderr
	}
	runErr := runExperiments(*experiment, out, progressTo, *parallel, *asJSON, *telemetry)
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mousebench:", runErr)
		os.Exit(1)
	}
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

// runExperiments builds the report of the selected experiment (or all
// of them) with the given sweep-worker bound and writes it to out as
// tables — or, with asJSON, as the structured report. telemetry
// attaches a shared probe.Stats to every simulation and reports its
// totals. A non-nil progressTo receives one live line per experiment
// start/finish (the -progress stderr feed); it never receives table or
// report bytes.
func runExperiments(experiment string, out, progressTo io.Writer, workers int, asJSON, telemetry bool) error {
	var prog bench.Progress
	if progressTo != nil {
		prog = bench.NewProgressWriter(progressTo)
	}
	var obs []probe.Observer
	stats := &probe.Stats{}
	if telemetry {
		obs = append(obs, stats)
	}
	rep, err := bench.BuildReport(experiment, workers, prog, obs...)
	if err != nil {
		return err
	}
	if telemetry {
		rep.Telemetry = stats.Section()
	}
	if asJSON {
		return rep.WriteJSON(out)
	}
	return rep.WriteTables(out)
}
