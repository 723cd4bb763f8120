// mousetrace runs one MOUSE workload under a harvested power source and
// records the run's timeline as Chrome trace_event JSON — outages,
// restore phases, coalesced instruction spans, and the capacitor
// voltage as a counter track — plus a telemetry summary on stdout.
//
// The output loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: the "machine" thread shows instruction and restore
// spans, the "power" thread shows the initial charge and every outage,
// and the "Vcap" counter draws the buffer voltage sawtooth between V_on
// and V_off.
//
// Usage:
//
//	mousetrace [flags]
//
//	-workload NAME   benchmark to run (default "SVM MNIST"; see mousebench
//	                 table4 for names), or "custom" with the flags below
//	-features N -bits N -sv N -classes N -mem BYTES   custom SVM shape
//	-config modern-stt|projected-stt|she              technology
//	-source solar|constant|rf|trace                   power source
//	-power W         source power: solar/RF peak or constant level
//	-period S        solar day/night period
//	-trace-file F    "seconds watts" power trace for -source trace
//	-trace-tail P    end-of-trace policy: hold, loop, zero
//	-cap F           capacitor override (farads)
//	-vsample S       voltage sample decimation (0 disables the track)
//	-out FILE        trace path (default: derived from the workload name)
//	-stats FILE      also write the telemetry section as indented JSON
//	                 (same probe.Section shape as mousebench -telemetry)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mouse/internal/cliflag"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mousetrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mousetrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	name := fs.String("workload", "SVM MNIST", `benchmark name, or "custom"`)
	features := fs.Int("features", 16, "custom SVM: input features")
	bits := fs.Int("bits", 8, "custom SVM: input bits")
	numSV := fs.Int("sv", 32, "custom SVM: support vectors")
	classes := fs.Int("classes", 2, "custom SVM: classes")
	memBytes := fs.Int64("mem", 1<<20, "custom SVM: provisioned array bytes")
	config := fs.String("config", "modern-stt", "technology: modern-stt, projected-stt, she")
	source := fs.String("source", "solar", "power source: solar, constant, rf, trace")
	watts := fs.Float64("power", 100e-6, "source power in watts (solar/RF peak, constant level)")
	period := fs.Float64("period", 0.5, "solar day/night period in seconds")
	traceFile := fs.String("trace-file", "", `power trace file for -source trace ("seconds watts" per line)`)
	traceTail := fs.String("trace-tail", "hold", "end-of-trace policy: hold, loop, zero")
	capF := fs.Float64("cap", 0, "capacitor override in farads (0 = technology default)")
	vsample := fs.Float64("vsample", 1e-3, "capacitor voltage sample interval in seconds (0 = no voltage track)")
	outPath := fs.String("out", "", "trace output path (default derived from the workload name)")
	statsPath := fs.String("stats", "", "also write the probe telemetry section to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliflag.CheckFinite(fs); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q; mousetrace takes only flags", fs.Args())
	}

	var cfg *mtj.Config
	switch *config {
	case "modern-stt":
		cfg = mtj.ModernSTT()
	case "projected-stt":
		cfg = mtj.ProjectedSTT()
	case "she":
		cfg = mtj.ProjectedSHE()
	default:
		return fmt.Errorf("unknown config %q", *config)
	}

	var spec workload.Spec
	var err error
	if *name == "custom" {
		spec, err = workload.CustomSVM("custom SVM", *features, *bits, *numSV, *classes, *memBytes)
	} else {
		spec, err = workload.ByName(*name)
	}
	if err != nil {
		return err
	}

	var src power.Source
	// powerTrace stays non-nil only for -source trace, so the post-run
	// report can surface whether the run outlived the recording.
	var powerTrace *power.Trace
	switch *source {
	case "solar":
		src = power.Solar{Peak: *watts, Period: *period}
	case "constant":
		src = power.Constant{W: *watts}
	case "rf":
		// Mean dwell times mirror the solar period's duty so the flags
		// stay shared; the seed is fixed for reproducible traces.
		src = power.NewRFBursts(*watts, *period/2, *period/2, 1)
	case "trace":
		if *traceFile == "" {
			return fmt.Errorf("-source trace requires -trace-file")
		}
		tail, err := power.ParseTailPolicy(*traceTail)
		if err != nil {
			return err
		}
		tf, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tr, err := power.ParseTrace(tf, tail)
		tf.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *traceFile, err)
		}
		powerTrace = &tr
		src = tr
	default:
		return fmt.Errorf("unknown source %q", *source)
	}

	capacitance := cfg.CapC
	if *capF > 0 {
		capacitance = *capF
	}

	path := *outPath
	if path == "" {
		slug := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
				return r
			case r >= 'A' && r <= 'Z':
				return r + ('a' - 'A')
			default:
				return '-'
			}
		}, spec.Name)
		path = strings.Trim(slug, "-") + ".trace.json"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}

	stats := &probe.Stats{}
	tw := probe.NewTraceWriter(f)

	r := sim.NewRunner(energy.NewModel(cfg))
	r.Obs = probe.Multi{stats, tw}
	h := power.NewHarvester(src, capacitance, cfg.CapVMin, cfg.CapVMax)
	h.Obs = r.Obs
	h.SampleEvery = *vsample

	res, runErr := r.Run(spec.Stream(), h)
	if err := tw.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if powerTrace != nil && h.Now() > powerTrace.End() {
		// Surface end-of-trace explicitly: past this point the numbers
		// reflect the tail policy, not recorded data.
		fmt.Fprintf(stdout, "note: the run outlived its power trace (trace ends at %.6g s, run ended at %.6g s); the %q tail policy supplied the remainder\n",
			powerTrace.End(), h.Now(), powerTrace.Tail)
	}
	if runErr != nil {
		return runErr
	}

	sec := stats.Section()
	if *statsPath != "" {
		sf, err := os.Create(*statsPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(sf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sec); err != nil {
			sf.Close()
			return fmt.Errorf("writing %s: %w", *statsPath, err)
		}
		if err := sf.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "workload      %s on %s under %s\n", spec.Name, cfg.Name, src.Name())
	fmt.Fprintf(stdout, "latency       %.6g s (on %.6g s, charging %.6g s)\n",
		res.TotalLatency(), res.OnLatency, res.OffLatency)
	if err := sec.WriteSummary(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace         %s — open in https://ui.perfetto.dev or chrome://tracing\n", path)
	return nil
}
