// Package bench regenerates every table and figure of the paper's
// evaluation (Sections VIII–IX): Table I (interrupted-gate safety),
// Table II (device parameters), Table III (area), Table IV
// (continuous-power comparison), Fig. 9 (latency vs. power source), and
// Figs. 10–12 (latency/energy breakdowns per configuration at 60 µW).
// Each experiment has a Compute function returning structured rows
// (consumed by reports, tests and testing.B benchmarks) and a Print
// function formatting those rows as the human-readable table.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mouse/internal/array"
	"mouse/internal/baseline"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// Powers is the Fig. 9 power-source sweep: 60 µW (a 1 cm² body-heat
// harvester) up to 5 mW (SONIC's Powercast harvester).
func Powers() []float64 {
	return []float64{60e-6, 100e-6, 175e-6, 300e-6, 500e-6, 1e-3, 2e-3, 5e-3}
}

// --- Table I -------------------------------------------------------------

// TableIRow is one cell of Table I: an interrupted-then-repeated AND
// gate case and its outcome.
type TableIRow struct {
	InputA, InputB int
	// SwitchedBeforeInterrupt reports whether the first (interrupted)
	// pulse completed the output switch.
	SwitchedBeforeInterrupt bool
	// Output is the final value after re-performing the gate.
	Output int
	// Correct is the truth-table AND value.
	Correct int
}

// ComputeTableI exercises the four interruption cases of Table I on the
// functional array.
func ComputeTableI(cfg *mtj.Config) []TableIRow {
	var rows []TableIRow
	for _, c := range []struct {
		a, b      int
		firstFrac float64
	}{
		{1, 1, 0.4}, // should not switch; interrupted early
		{1, 1, 1.0}, // should not switch; full first pulse (cannot switch by construction)
		{0, 1, 0.4}, // should switch; interrupted before switching
		{0, 1, 1.0}, // should switch; switched before the interrupt
	} {
		tile := array.NewTile(cfg, 8, 1)
		tile.SetActive([]uint16{0})
		tile.SetBit(0, 0, c.a)
		tile.SetBit(2, 0, c.b)
		tile.SetBit(1, 0, 1) // AND preset
		frac := c.firstFrac
		if err := tile.ExecLogic(mtj.AND2, []int{0, 2}, 1, func(int) float64 { return frac }); err != nil {
			panic(err)
		}
		switched := tile.Bit(1, 0) != 1
		if err := tile.ExecLogic(mtj.AND2, []int{0, 2}, 1, array.FullPulse); err != nil {
			panic(err)
		}
		rows = append(rows, TableIRow{
			InputA: c.a, InputB: c.b,
			SwitchedBeforeInterrupt: switched,
			Output:                  tile.Bit(1, 0),
			Correct:                 c.a & c.b,
		})
	}
	return rows
}

// PrintTableI renders Table I's rows, computed under cfg.
func PrintTableI(w io.Writer, cfg *mtj.Config, rows []TableIRow) error {
	fmt.Fprintf(w, "Table I — re-performing an interrupted AND gate (%s)\n", cfg.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "inputs\tswitched before interrupt\tfinal output\texpected\tsafe")
	for _, r := range rows {
		fmt.Fprintf(tw, "(%d,%d)\t%v\t%d\t%d\t%v\n",
			r.InputA, r.InputB, r.SwitchedBeforeInterrupt, r.Output, r.Correct, r.Output == r.Correct)
	}
	return tw.Flush()
}

// --- Table II ------------------------------------------------------------

// TableIIRow is one MTJ device parameter (Table II).
type TableIIRow struct {
	Parameter string
	Unit      string
	// Decimals is the precision the paper quotes the parameter at.
	Decimals int
	Modern   float64
	Proj     float64
}

// ComputeTableII returns the MTJ device parameters in paper units.
func ComputeTableII() []TableIIRow {
	m, p := mtj.Modern(), mtj.Projected()
	return []TableIIRow{
		{Parameter: "P state resistance", Unit: "kΩ", Decimals: 2, Modern: m.RP / 1e3, Proj: p.RP / 1e3},
		{Parameter: "AP state resistance", Unit: "kΩ", Decimals: 2, Modern: m.RAP / 1e3, Proj: p.RAP / 1e3},
		{Parameter: "switching time", Unit: "ns", Decimals: 0, Modern: m.SwitchTime * 1e9, Proj: p.SwitchTime * 1e9},
		{Parameter: "switching current", Unit: "µA", Decimals: 0, Modern: m.SwitchCurrent * 1e6, Proj: p.SwitchCurrent * 1e6},
	}
}

// PrintTableII renders the MTJ device parameters (Table II).
func PrintTableII(w io.Writer, rows []TableIIRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Table II — MTJ device parameters")
	fmt.Fprintln(tw, "parameter\tmodern\tprojected")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.*f %s\t%.*f %s\n", r.Parameter, r.Decimals, r.Modern, r.Unit, r.Decimals, r.Proj, r.Unit)
	}
	return tw.Flush()
}

// --- Table III -----------------------------------------------------------

// TableIIIRow is one area row.
type TableIIIRow struct {
	Benchmark string
	MemMB     int64
	ModernSTT float64
	ProjSTT   float64
	SHE       float64
}

// ComputeTableIII evaluates the area model for each benchmark.
func ComputeTableIII() []TableIIIRow {
	var rows []TableIIIRow
	for _, s := range workload.Benchmarks() {
		rows = append(rows, TableIIIRow{
			Benchmark: s.Name,
			MemMB:     s.MemBytes >> 20,
			ModernSTT: energy.Area(mtj.ModernSTT(), s.MemBytes),
			ProjSTT:   energy.Area(mtj.ProjectedSTT(), s.MemBytes),
			SHE:       energy.Area(mtj.ProjectedSHE(), s.MemBytes),
		})
	}
	return rows
}

// PrintTableIII renders Table III.
func PrintTableIII(w io.Writer, rows []TableIIIRow) error {
	fmt.Fprintln(w, "Table III — area (mm²) per benchmark and configuration")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmemory\tModern STT\tProjected STT\tSHE")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d MB\t%.2f\t%.2f\t%.2f\n", r.Benchmark, r.MemMB, r.ModernSTT, r.ProjSTT, r.SHE)
	}
	return tw.Flush()
}

// --- Table IV ------------------------------------------------------------

// TableIVRow is one continuous-power comparison row.
type TableIVRow struct {
	System    string
	Benchmark string
	LatencyUS float64
	EnergyUJ  float64
	NumSV     int
	InstrMB   float64
	DataMB    float64
	AreaMM2   float64
}

// ComputeTableIV runs every MOUSE benchmark under continuous power
// (Modern STT, as in the paper) and appends the CPU/libSVM/SONIC
// reference rows. The per-benchmark runs execute on the sweep pool with
// the given worker bound (<= 0 selects DefaultWorkers). An optional
// observer (shared across the pool's jobs — it must be concurrency-safe,
// like probe.Stats) receives every run's events.
func ComputeTableIV(workers int, obs ...probe.Observer) []TableIVRow {
	cfg := mtj.ModernSTT()
	specs := workload.Benchmarks()
	rows, _ := Jobs(workers, len(specs), func(i int) (TableIVRow, error) {
		s := specs[i]
		r := sim.NewRunner(energy.NewModel(cfg))
		r.Obs = probe.First(obs)
		res := r.RunContinuous(s.Stream())
		system := "MOUSE SVM (Modern STT)"
		if s.Kind == workload.BNN {
			system = "MOUSE BNN (Modern STT)"
		}
		return TableIVRow{
			System:    system,
			Benchmark: s.Name,
			LatencyUS: res.OnLatency * 1e6,
			EnergyUJ:  res.TotalEnergy() * 1e6,
			NumSV:     s.NumSV,
			InstrMB:   s.InstrMB,
			DataMB:    s.DataMB,
			AreaMM2:   energy.Area(cfg, s.MemBytes),
		}, nil
	})
	for _, ref := range baseline.CPUReference() {
		rows = append(rows, TableIVRow{System: ref.System, Benchmark: ref.Benchmark,
			LatencyUS: ref.LatencyUS, EnergyUJ: ref.EnergyUJ, NumSV: ref.NumSV})
	}
	for _, ref := range baseline.LibSVMReference() {
		rows = append(rows, TableIVRow{System: ref.System, Benchmark: ref.Benchmark,
			LatencyUS: ref.LatencyUS, EnergyUJ: ref.EnergyUJ, NumSV: ref.NumSV})
	}
	for _, ref := range baseline.SONICReference() {
		rows = append(rows, TableIVRow{System: ref.System, Benchmark: ref.Benchmark,
			LatencyUS: ref.LatencyUS, EnergyUJ: ref.EnergyUJ})
	}
	return rows
}

// PrintTableIV renders Table IV.
func PrintTableIV(w io.Writer, rows []TableIVRow) error {
	fmt.Fprintln(w, "Table IV — continuous power (MOUSE rows simulated; CPU/libSVM/SONIC rows from the paper)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tbenchmark\tlatency (µs)\tenergy (µJ)\t#SV\tI/D mem (MB)\tarea (mm²)")
	for _, r := range rows {
		sv := "-"
		if r.NumSV > 0 {
			sv = fmt.Sprintf("%d", r.NumSV)
		}
		mem := "-"
		if r.DataMB > 0 {
			mem = fmt.Sprintf("%.2f / %.2f", r.InstrMB, r.DataMB)
		}
		area := "-"
		if r.AreaMM2 > 0 {
			area = fmt.Sprintf("%.2f", r.AreaMM2)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.2f\t%s\t%s\t%s\n", r.System, r.Benchmark, r.LatencyUS, r.EnergyUJ, sv, mem, area)
	}
	return tw.Flush()
}

// --- Fig. 9 --------------------------------------------------------------

// Fig9Point is one point of a latency-vs-power curve.
type Fig9Point struct {
	System string
	Watts  float64
	// LatencySec is total completion time (on + off).
	LatencySec float64
	Restarts   uint64
}

// ComputeFig9 sweeps the power source for every MOUSE benchmark under
// the given configuration, plus the SONIC baselines. Every
// (system, power) cell is one pool job owning its runner and harvester;
// points come back in grid order regardless of scheduling.
func ComputeFig9(cfg *mtj.Config, powers []float64, workers int, obs ...probe.Observer) ([]Fig9Point, error) {
	specs := workload.Benchmarks()
	sonics := []func() *baseline.SONIC{baseline.SONICMNIST, baseline.SONICHAR}
	n := (len(specs) + len(sonics)) * len(powers)
	return Jobs(workers, n, func(i int) (Fig9Point, error) {
		sys, p := i/len(powers), powers[i%len(powers)]
		if sys < len(specs) {
			s := specs[sys]
			r := sim.NewRunner(energy.NewModel(cfg))
			r.Obs = probe.First(obs)
			h := power.NewHarvester(power.Constant{W: p}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			res, err := r.Run(s.Stream(), h)
			if err != nil {
				return Fig9Point{}, fmt.Errorf("%s at %g W: %w", s.Name, p, err)
			}
			return Fig9Point{System: s.Name, Watts: p,
				LatencySec: res.TotalLatency(), Restarts: res.Restarts}, nil
		}
		sb := sonics[sys-len(specs)]()
		res, err := sb.Run(power.Constant{W: p})
		if err != nil {
			return Fig9Point{}, fmt.Errorf("%s at %g W: %w", sb.Name, p, err)
		}
		return Fig9Point{System: sb.Name, Watts: p,
			LatencySec: res.Latency, Restarts: uint64(res.Restarts)}, nil
	})
}

// Fig9Sweep is one configuration's Fig. 9 power sweep in a report.
type Fig9Sweep struct {
	Config string
	Points []Fig9Point
}

// computeFig9Sweeps runs ComputeFig9 over the Powers grid for every
// configuration, in mtj.Configs order.
func computeFig9Sweeps(workers int, obs ...probe.Observer) ([]Fig9Sweep, error) {
	var sweeps []Fig9Sweep
	for _, cfg := range mtj.Configs() {
		points, err := ComputeFig9(cfg, Powers(), workers, obs...)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, Fig9Sweep{Config: cfg.Name, Points: points})
	}
	return sweeps, nil
}

// PrintFig9 renders each configuration's latency-vs-power series,
// separated by one blank line.
func PrintFig9(w io.Writer, sweeps []Fig9Sweep) error {
	for i, sweep := range sweeps {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Fig. 9 — latency (s) vs power source (%s)\n", sweep.Config)
		bySystem := map[string][]Fig9Point{}
		var order []string
		for _, pt := range sweep.Points {
			if _, seen := bySystem[pt.System]; !seen {
				order = append(order, pt.System)
			}
			bySystem[pt.System] = append(bySystem[pt.System], pt)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "system")
		if len(order) > 0 {
			for _, pt := range bySystem[order[0]] {
				fmt.Fprintf(tw, "\t%.3g W", pt.Watts)
			}
		}
		fmt.Fprintln(tw)
		for _, sys := range order {
			fmt.Fprint(tw, sys)
			for _, pt := range bySystem[sys] {
				fmt.Fprintf(tw, "\t%.4g", pt.LatencySec)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// CrossoverPowerW returns the analytic power level at which FP-BNN's
// latency drops below the binarized MNIST SVM's (Section IX: "a
// cross-over of the latency between FP-BNN and SVM MNIST (Bin)"): below
// it the energy-hungrier FP-BNN is slower (latency is energy-bound);
// above it FP-BNN's higher exploited parallelism wins.
func CrossoverPowerW(cfg *mtj.Config, workers int, obs ...probe.Observer) (float64, error) {
	names := []string{"SVM MNIST (Bin)", "BNN FPBNN MNIST"}
	runs, err := Jobs(workers, len(names), func(i int) (sim.Result, error) {
		s, err := workload.ByName(names[i])
		if err != nil {
			return sim.Result{}, err
		}
		r := sim.NewRunner(energy.NewModel(cfg))
		r.Obs = probe.First(obs)
		return r.RunContinuous(s.Stream()), nil
	})
	if err != nil {
		return 0, err
	}
	rb, rf := runs[0], runs[1]
	dE := rf.TotalEnergy() - rb.TotalEnergy()
	dT := rb.OnLatency - rf.OnLatency
	if dE <= 0 || dT <= 0 {
		return 0, fmt.Errorf("bench: no crossover: ΔE=%g J, ΔT=%g s", dE, dT)
	}
	return dE / dT, nil
}

// --- Figs. 10–12 ---------------------------------------------------------

// BreakdownRow is one benchmark's EH-model breakdown (Figs. 10, 11, 12).
type BreakdownRow struct {
	Benchmark string
	energy.Breakdown
}

// ComputeBreakdown runs every benchmark at the given harvested power
// (the figures use 60 µW) under cfg, one pool job per benchmark.
func ComputeBreakdown(cfg *mtj.Config, watts float64, workers int, obs ...probe.Observer) ([]BreakdownRow, error) {
	specs := workload.Benchmarks()
	return Jobs(workers, len(specs), func(i int) (BreakdownRow, error) {
		s := specs[i]
		r := sim.NewRunner(energy.NewModel(cfg))
		r.Obs = probe.First(obs)
		h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		res, err := r.Run(s.Stream(), h)
		if err != nil {
			return BreakdownRow{}, fmt.Errorf("%s: %w", s.Name, err)
		}
		return BreakdownRow{Benchmark: s.Name, Breakdown: res.Breakdown}, nil
	})
}

// PrintBreakdown renders one of Figs. 10–12 from its rows, computed
// under cfg at watts.
func PrintBreakdown(w io.Writer, cfg *mtj.Config, watts float64, figure string, rows []BreakdownRow) error {
	fmt.Fprintf(w, "%s — latency/energy breakdown, %s at %.0f µW\n", figure, cfg.Name, watts*1e6)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\ttotal E (µJ)\tbackup %\tdead %\trestore %\ttotal lat (s)\tdead lat %\trestore lat %\trestarts")
	for _, r := range rows {
		lat := r.TotalLatency()
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.4g\t%.4f\t%.4f\t%d\n",
			r.Benchmark, r.TotalEnergy()*1e6,
			100*r.Share(r.BackupEnergy), 100*r.Share(r.DeadEnergy), 100*r.Share(r.RestoreEnergy),
			lat, 100*r.DeadLatency/lat, 100*r.RestoreLatency/lat, r.Restarts)
	}
	return tw.Flush()
}

// AverageShares summarizes the Section IX percentages: mean Backup,
// Dead, and Restore energy shares across benchmarks.
func AverageShares(rows []BreakdownRow) (backup, dead, restore float64) {
	for _, r := range rows {
		backup += r.Share(r.BackupEnergy)
		dead += r.Share(r.DeadEnergy)
		restore += r.Share(r.RestoreEnergy)
	}
	n := float64(len(rows))
	return backup / n, dead / n, restore / n
}
