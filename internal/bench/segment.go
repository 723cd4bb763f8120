package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// The segment-engine experiment: run every benchmark's full Fig. 9
// power sweep twice — once on the stepping intermittent simulator, once
// on the analytic segment engine — and verify the Results are
// bit-identical at every grid point. The engines' host speeds are
// measured by `go test -bench Fig9Row` in the root package.

// SegmentRow is one benchmark's stepping-vs-segment sweep comparison.
type SegmentRow struct {
	// Workload names the benchmark; Powers is the number of grid powers
	// swept (one full intermittent run each, per engine).
	Workload string
	Powers   int
	// Mismatches counts grid points where the segment engine's Result
	// (or error) differed from stepping (always 0 on a correct engine).
	Mismatches int
	// Restarts totals the outages across the sweep — the quantity that
	// makes this grid expensive for the stepping path, and deterministic
	// simulation output (both engines must agree on it).
	Restarts uint64
}

// ComputeSegment runs the comparison at the Fig. 9 grid (ModernSTT,
// the paper's power sweep) with benchmarks as independent jobs on the
// sweep pool. The experiment is a differential check of the engines,
// so it takes no observer.
func ComputeSegment(workers int) ([]SegmentRow, error) {
	specs := workload.Benchmarks()
	cfg := mtj.ModernSTT()
	return Jobs(workers, len(specs), func(i int) (SegmentRow, error) {
		return computeSegmentRow(specs[i], cfg)
	})
}

func computeSegmentRow(spec workload.Spec, cfg *mtj.Config) (SegmentRow, error) {
	powers := Powers()
	row := SegmentRow{Workload: spec.Name, Powers: len(powers)}
	model := energy.NewModel(cfg)

	// The segment engine gets the sweep as a single RunSweep call (its
	// natural unit of work — one precosting pass, lanes interleaved);
	// the stepping engine runs the points back to back.
	stepRes := make([]sim.Result, len(powers))
	stepErrs := make([]error, len(powers))
	for i, h := range rowHarvesters(cfg, powers) {
		r := sim.NewRunner(model)
		r.ForceStepping = true
		stepRes[i], stepErrs[i] = r.Run(spec.Stream(), h)
	}
	segRes, segErrs := sim.NewRunner(model).RunSweep(spec.Stream(), rowHarvesters(cfg, powers))

	for i := range powers {
		if (segErrs[i] == nil) != (stepErrs[i] == nil) ||
			(segErrs[i] != nil && segErrs[i].Error() != stepErrs[i].Error()) ||
			segRes[i] != stepRes[i] {
			row.Mismatches++
			continue
		}
		row.Restarts += segRes[i].Restarts
	}
	return row, nil
}

// PrintSegmentChecked renders the experiment's rows: every grid point
// bit-identical across engines, and the outage totals both engines
// agreed on.
func PrintSegmentChecked(w io.Writer, rows []SegmentRow) error {
	fmt.Fprintln(w, "Segment engine equivalence — Fig. 9 sweep (timings: go test -bench Fig9Row)")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tpowers\trestarts\tmismatches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Workload, r.Powers, r.Restarts, r.Mismatches)
	}
	return tw.Flush()
}
