// mousefault adversarially verifies MOUSE's intermittency claim: it
// crashes a workload at every instruction boundary (and at swept
// intra-instruction µ-phase fractions) and differentially checks each
// crashed run against a continuous-power golden run. A point is
// crash-equivalent when the recovered run ends with byte-identical
// cells and memory buffer, the same committed-instruction count,
// exactly one outage, and at most one replayed instruction — the
// paper's "at most one re-executed instruction per power loss".
//
// The exit status is the verdict: 0 when every injection point is
// crash-equivalent, 1 otherwise (or on any setup error), so CI can run
// mousefault as a gate.
//
// Usage:
//
//	mousefault [flags]
//
//	-layer machine|trace   bit-accurate machine sweep (default) or the
//	                       analytic trace-layer sweep of the same program
//	-workload NAME         arith, tiny-svm, tiny-bnn, tiny-fft
//	-scalar                pin the machine to the scalar logic path
//	-config modern-stt|projected-stt|she   technology
//	-fracs F1,F2,...       µ-phase fractions in [0,1) (default: the
//	                       full band grid)
//	-stride N              sample every Nth boundary (bounded smoke
//	                       sweeps; 1 = exhaustive)
//	-random N -seed S      replace the grid with N seeded random points
//	-parallel N            sweep worker bound (0 = one per CPU)
//	-json                  emit the mouse-fault/v1 report as JSON
//	-normalize             zero host-dependent report fields (with -json)
//	-out FILE              write output to a file instead of stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mouse/internal/fault"
	"mouse/internal/mtj"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mousefault:", err)
		os.Exit(1)
	}
}

// errNotEquivalent signals a completed sweep that found non-equivalent
// points: the report was already written, only the exit status is left.
var errNotEquivalent = fmt.Errorf("crash-equivalence violated")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mousefault", flag.ContinueOnError)
	fs.SetOutput(stdout)
	layer := fs.String("layer", "machine", "sweep layer: machine, trace")
	name := fs.String("workload", "arith", "workload name (see -h)")
	scalar := fs.Bool("scalar", false, "pin the machine to the scalar logic path")
	config := fs.String("config", "modern-stt", "technology: modern-stt, projected-stt, she")
	fracsSpec := fs.String("fracs", "", "comma-separated µ-phase fractions in [0,1); empty = full band grid")
	stride := fs.Int("stride", 1, "sample every Nth instruction boundary")
	random := fs.Int("random", 0, "run N seeded random points instead of the grid")
	seed := fs.Int64("seed", 1, "random campaign seed")
	parallel := fs.Int("parallel", 0, "sweep worker bound; 0 means one per CPU")
	asJSON := fs.Bool("json", false, "emit the mouse-fault/v1 report as JSON")
	normalize := fs.Bool("normalize", false, "zero host-dependent report fields (parallelism, wall time)")
	outPath := fs.String("out", "", "write output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q; mousefault takes only flags", fs.Args())
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

	fracs, err := parseFracs(*fracsSpec)
	if err != nil {
		return err
	}
	opts := fault.Options{
		Fracs:   fracs,
		Stride:  *stride,
		Random:  *random,
		Seed:    *seed,
		Workers: *parallel,
	}

	if *scalar && *layer == fault.LayerTrace {
		return fmt.Errorf("-scalar applies to the machine layer only")
	}
	w, err := fault.LookupWorkload(cfg, *name)
	if err != nil {
		return err
	}
	if *scalar {
		w = w.ForceScalar()
	}
	rep, err := fault.Sweep(w, *layer, opts)
	if err != nil {
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
	if *asJSON {
		if *normalize {
			rep.Normalize()
		}
		if err := rep.WriteJSON(out); err != nil {
			return err
		}
	} else {
		rep.Summary(out)
	}
	if !rep.AllEquivalent() {
		return fmt.Errorf("%w: %d/%d injection points diverged", errNotEquivalent, rep.Points-rep.Equivalent, rep.Points)
	}
	return nil
}

// parseFracs parses the -fracs flag: a comma-separated list of µ-phase
// fractions, each in [0, 1).
func parseFracs(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	fracs := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q: %w", p, err)
		}
		if f < 0 || f >= 1 {
			return nil, fmt.Errorf("fraction %g outside [0, 1)", f)
		}
		fracs = append(fracs, f)
	}
	return fracs, nil
}
