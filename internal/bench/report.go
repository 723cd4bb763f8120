package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"mouse/internal/array"
	"mouse/internal/mtj"
	"mouse/internal/probe"
)

// Schema identifies the JSON report layout. Bump it when the report
// structure changes incompatibly; BENCH_*.json files across PRs form
// the perf trajectory and tooling keys off this string.
const Schema = "mouse-bench/v1"

// Report is the machine-readable result of a mousebench run: every
// selected experiment's typed rows plus its wall-clock cost, so a
// committed BENCH_N.json both records the paper-reproduction numbers
// and tracks how fast the harness regenerates them.
type Report struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Parallelism is the sweep-engine worker bound the run used
	// (resolved: never 0).
	Parallelism int                `json:"parallelism"`
	Experiments []ExperimentReport `json:"experiments"`

	// Telemetry is the probe.Stats snapshot of every simulation the run
	// executed, present only when telemetry collection was requested
	// (mousebench -telemetry). Adding an optional section keeps the
	// schema at v1: absent in older BENCH_*.json files, ignored by
	// tooling that does not know it.
	Telemetry *probe.Section `json:"telemetry,omitempty"`

	// Meta records the environment that produced the report (toolchain,
	// host parallelism, git revision when the binary carries VCS
	// stamping). Like Telemetry it is an optional v1 section: Normalize
	// strips it, so it never participates in cross-run result diffs.
	Meta *RunMeta `json:"meta,omitempty"`
}

// RunMeta is the report's run-environment stamp.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GitRevision is the commit the binary was built from, when the Go
	// toolchain embedded VCS info (`go build` inside a checkout; absent
	// under `go run` and in test binaries).
	GitRevision string `json:"git_revision,omitempty"`
	// GitDirty marks a build from a modified working tree.
	GitDirty bool `json:"git_dirty,omitempty"`
}

// CollectRunMeta captures the current process's run metadata.
func CollectRunMeta() *RunMeta {
	m := &RunMeta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}

// ExperimentReport is one experiment's structured result.
type ExperimentReport struct {
	Name string `json:"name"`
	// WallSeconds is the host wall-clock time computing the rows took.
	WallSeconds float64 `json:"wall_seconds"`
	// Rows is the experiment's typed row slice (e.g. []Fig9Sweep for
	// fig9, []TableIVRow for table4); in decoded reports it is the
	// generic JSON form.
	Rows any `json:"rows"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Normalize zeroes the run-environment fields — wall-clock times and
// the worker count — and drops the telemetry and meta sections, leaving
// only the simulated results, so reports from different machines or
// parallelism settings compare deep-equal exactly when the simulation
// itself is deterministic. Rows hold simulation output only, so a
// decoded report normalizes the same as the one that was encoded.
func (r *Report) Normalize() {
	r.Parallelism = 0
	for i := range r.Experiments {
		r.Experiments[i].WallSeconds = 0
	}
	// Telemetry floats accumulate in pool-scheduling order, so two runs
	// of the same experiments at different parallelism can differ in the
	// last ulp; the section is diagnostics, not simulation output.
	r.Telemetry = nil
	r.Meta = nil
}

// WriteTables renders the report as the human-readable tables, one per
// experiment, separated by exactly one blank line, with no leading or
// trailing blank line; a Telemetry section follows as a summary block.
// The report must hold the typed rows its builder returned.
func (r *Report) WriteTables(w io.Writer) error {
	all := Experiments()
	for i, er := range r.Experiments {
		if i > 0 {
			fmt.Fprintln(w)
		}
		e, err := selectExperiment(all, er.Name)
		if err != nil {
			return err
		}
		if err := e.Print(w, er.Rows); err != nil {
			return fmt.Errorf("%s: %w", er.Name, err)
		}
	}
	if r.Telemetry == nil {
		return nil
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Telemetry — totals across every simulation above")
	return r.Telemetry.WriteSummary(w)
}

// CrossoverResult is the crossover experiment's single row.
type CrossoverResult struct {
	// PowerW is the FP-BNN vs SVM MNIST (Bin) latency-crossover power.
	PowerW float64
}

// Experiment is one entry of the mousebench registry: a stable name, a
// typed-row producer, and a table printer that formats those rows.
// workers bounds the sweep pool (<= 0 selects DefaultWorkers). The
// optional observer is shared by every simulation the experiment runs
// (so it must be concurrency-safe, like probe.Stats); experiments that
// run no simulations ignore it.
type Experiment struct {
	Name  string
	Rows  func(workers int, obs ...probe.Observer) (any, error)
	Print func(w io.Writer, rows any) error
}

// experiment builds a registry entry from a typed row producer and the
// printer of those rows; the rows' type assertion lives here.
func experiment[T any](name string, compute func(workers int, obs ...probe.Observer) (T, error), print func(w io.Writer, rows T) error) Experiment {
	return Experiment{
		Name: name,
		Rows: func(workers int, obs ...probe.Observer) (any, error) { return compute(workers, obs...) },
		Print: func(w io.Writer, rows any) error {
			typed, ok := rows.(T)
			if !ok {
				return fmt.Errorf("bench: %s rows are %T, want %T", name, rows, typed)
			}
			return print(w, typed)
		},
	}
}

// Experiments lists every experiment in output order. The names are the
// mousebench -experiment values and the report row keys; keep them
// stable across PRs so BENCH_*.json files stay comparable.
func Experiments() []Experiment {
	return []Experiment{
		experiment("table1",
			func(int, ...probe.Observer) ([]TableIRow, error) { return ComputeTableI(mtj.ModernSTT()), nil },
			func(w io.Writer, rows []TableIRow) error { return PrintTableI(w, mtj.ModernSTT(), rows) }),
		experiment("table2",
			func(int, ...probe.Observer) ([]TableIIRow, error) { return ComputeTableII(), nil },
			PrintTableII),
		experiment("table3",
			func(int, ...probe.Observer) ([]TableIIIRow, error) { return ComputeTableIII(), nil },
			PrintTableIII),
		experiment("table4",
			func(workers int, obs ...probe.Observer) ([]TableIVRow, error) {
				return ComputeTableIV(workers, obs...), nil
			},
			PrintTableIV),
		experiment("fig9", computeFig9Sweeps, PrintFig9),
		breakdownExperiment("fig10", "Fig. 10", mtj.ModernSTT),
		breakdownExperiment("fig11", "Fig. 11", mtj.ProjectedSTT),
		breakdownExperiment("fig12", "Fig. 12", mtj.ProjectedSHE),
		experiment("fft", ComputeFFT, PrintFFT),
		experiment("robustness",
			func(workers int, _ ...probe.Observer) ([]RobustnessRow, error) {
				return ComputeRobustness(workers), nil
			},
			PrintRobustness),
		experiment("checkpoint",
			func(workers int, obs ...probe.Observer) ([]CheckpointRow, error) {
				return ComputeCheckpointSweep(mtj.ModernSTT(), "SVM ADULT", workers, obs...)
			},
			func(w io.Writer, rows []CheckpointRow) error {
				return PrintCheckpointSweep(w, mtj.ModernSTT(), "SVM ADULT", rows)
			}),
		experiment("parallelism",
			func(int, ...probe.Observer) ([]ParallelismRow, error) { return ComputeParallelism(), nil },
			PrintParallelism),
		experiment("crossover",
			func(workers int, obs ...probe.Observer) ([]CrossoverResult, error) {
				p, err := CrossoverPowerW(mtj.ModernSTT(), workers, obs...)
				if err != nil {
					return nil, err
				}
				return []CrossoverResult{{PowerW: p}}, nil
			},
			func(w io.Writer, rows []CrossoverResult) error {
				fmt.Fprintf(w, "FP-BNN vs SVM MNIST (Bin) latency crossover: %.3g W\n", rows[0].PowerW)
				fmt.Fprintln(w, "below this power the energy-hungrier FP-BNN is slower; above it its")
				_, err := fmt.Fprintln(w, "higher exploited parallelism wins (Section IX)")
				return err
			}),
		experiment("batch",
			func(workers int, _ ...probe.Observer) ([]BatchRow, error) {
				return ComputeBatch(array.MaxLanes, workers)
			},
			func(w io.Writer, rows []BatchRow) error { return PrintBatchChecked(w, array.MaxLanes, rows) }),
		experiment("segment",
			func(workers int, _ ...probe.Observer) ([]SegmentRow, error) { return ComputeSegment(workers) },
			PrintSegmentChecked),
		experiment("fleet",
			func(workers int, _ ...probe.Observer) ([]FleetRow, error) { return ComputeFleet(workers) },
			PrintFleetChecked),
	}
}

// breakdownExperiment builds a Figs. 10–12 registry entry at 60 µW.
func breakdownExperiment(name, figure string, cfg func() *mtj.Config) Experiment {
	const watts = 60e-6
	return experiment(name,
		func(workers int, obs ...probe.Observer) ([]BreakdownRow, error) {
			return ComputeBreakdown(cfg(), watts, workers, obs...)
		},
		func(w io.Writer, rows []BreakdownRow) error { return PrintBreakdown(w, cfg(), watts, figure, rows) })
}

// selectExperiment finds the registry entry named name.
func selectExperiment(all []Experiment, name string) (Experiment, error) {
	for _, e := range all {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", name)
}

// selectExperiments resolves an -experiment value against the registry.
func selectExperiments(experiment string) ([]Experiment, error) {
	all := Experiments()
	if experiment == "all" {
		return all, nil
	}
	e, err := selectExperiment(all, experiment)
	if err != nil {
		return nil, err
	}
	return []Experiment{e}, nil
}

// BuildReport computes the selected experiment's (or "all" experiments')
// typed rows and wall-clock costs into a Report, stamped with the
// current run's metadata. Per-experiment lifecycle events go to prog
// (nil means no events); obs is shared by every simulation the
// experiments run.
func BuildReport(experiment string, workers int, prog Progress, obs ...probe.Observer) (*Report, error) {
	selected, err := selectExperiments(experiment)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schema: Schema, Tool: "mousebench", Parallelism: clampWorkers(workers, 1<<30), Meta: CollectRunMeta()}
	for _, e := range selected {
		if prog != nil {
			prog.ExperimentStarted(e.Name, len(rep.Experiments)+1, len(selected))
		}
		start := time.Now()
		rows, err := e.Rows(workers, obs...)
		wall := time.Since(start)
		if prog != nil {
			prog.ExperimentFinished(e.Name, len(rep.Experiments)+1, len(selected), RowCount(rows), wall, err)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			Name:        e.Name,
			WallSeconds: wall.Seconds(),
			Rows:        rows,
		})
	}
	return rep, nil
}
