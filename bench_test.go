// Package mouse's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation (run with
// go test -bench=. -benchmem), plus microbenchmarks of the simulator's
// hot paths. Each table/figure benchmark reports the paper-relevant
// headline quantity as a custom metric so `-bench` output doubles as a
// results table; the full formatted tables come from cmd/mousebench.
package mouse_test

import (
	"fmt"
	"io"
	"testing"

	"mouse/internal/array"
	"mouse/internal/bench"
	"mouse/internal/bnn"
	"mouse/internal/compile"
	"mouse/internal/controller"
	"mouse/internal/dataset"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/svm"
	"mouse/internal/workload"
)

// --- Table I: interrupted-gate safety -------------------------------------

func BenchmarkTableI(b *testing.B) {
	cfg := mtj.ModernSTT()
	for i := 0; i < b.N; i++ {
		rows := bench.ComputeTableI(cfg)
		for _, r := range rows {
			if r.Output != r.Correct {
				b.Fatalf("unsafe interruption case: %+v", r)
			}
		}
	}
}

// --- Table III: area model -------------------------------------------------

func BenchmarkTableIII(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		rows := bench.ComputeTableIII()
		area = rows[0].ModernSTT
	}
	b.ReportMetric(area, "mm2-mnist-modern")
}

// --- Table IV: continuous-power comparison ---------------------------------

func BenchmarkTableIV(b *testing.B) {
	var rows []bench.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = bench.ComputeTableIV(0)
	}
	for _, r := range rows {
		if r.System == "MOUSE SVM (Modern STT)" && r.Benchmark == "SVM MNIST (Bin)" {
			b.ReportMetric(r.LatencyUS, "µs-mnist-bin")
			b.ReportMetric(r.EnergyUJ, "µJ-mnist-bin")
		}
	}
}

// Per-benchmark continuous runs (the six MOUSE rows of Table IV).
func BenchmarkTableIVRow(b *testing.B) {
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	for _, s := range workload.Benchmarks() {
		b.Run(s.Name, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = r.RunContinuous(s.Stream())
			}
			b.ReportMetric(res.OnLatency*1e6, "µs-latency")
			b.ReportMetric(res.TotalEnergy()*1e6, "µJ-energy")
		})
	}
}

// --- Fig. 9: latency vs power source ---------------------------------------

func benchmarkFig9(b *testing.B, cfg *mtj.Config) {
	powers := []float64{60e-6, 500e-6, 5e-3}
	var points []bench.Fig9Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.ComputeFig9(cfg, powers, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.System == "SVM MNIST (Bin)" && p.Watts == 60e-6 {
			b.ReportMetric(p.LatencySec, "s-mnistbin-60µW")
		}
	}
}

func BenchmarkFig9ModernSTT(b *testing.B)    { benchmarkFig9(b, mtj.ModernSTT()) }
func BenchmarkFig9ProjectedSTT(b *testing.B) { benchmarkFig9(b, mtj.ProjectedSTT()) }
func BenchmarkFig9SHE(b *testing.B)          { benchmarkFig9(b, mtj.ProjectedSHE()) }

// The sweep engine's headline: the full Fig. 9 grid (8 systems × 8
// power points) at one worker vs one worker per CPU. The ratio between
// these two is the harness speedup recorded in BENCH_*.json trajectory
// files.
func benchmarkFig9Sweep(b *testing.B, workers int) {
	cfg := mtj.ModernSTT()
	for i := 0; i < b.N; i++ {
		points, err := bench.ComputeFig9(cfg, bench.Powers(), workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 8*len(bench.Powers()) {
			b.Fatalf("%d points", len(points))
		}
	}
}

func BenchmarkFig9SweepSerial(b *testing.B)   { benchmarkFig9Sweep(b, 1) }
func BenchmarkFig9SweepParallel(b *testing.B) { benchmarkFig9Sweep(b, 0) }

// Stepping vs segment A/B on one Fig. 9 row (a benchmark's full power
// sweep, single worker): the intermittent-path speedup the segment
// engine delivers, tracked so engine regressions show up in
// `go test -bench Fig9Row`. Both variants compute bit-identical
// Results; only the engine differs. TestSegmentThroughputRegression
// gates the same body on every benchmark's row.
func fig9Row(spec workload.Spec, force bool) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := mtj.ModernSTT()
		model := energy.NewModel(cfg)
		powers := bench.Powers()
		var restarts uint64
		for i := 0; i < b.N; i++ {
			restarts = 0
			if force {
				for _, watts := range powers {
					r := sim.NewRunner(model)
					r.ForceStepping = true
					h := power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
					res, err := r.Run(spec.Stream(), h)
					if err != nil {
						b.Fatal(err)
					}
					restarts += res.Restarts
				}
			} else {
				hs := make([]*power.Harvester, len(powers))
				for j, watts := range powers {
					hs[j] = power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				}
				results, errs := sim.NewRunner(model).RunSweep(spec.Stream(), hs)
				for j, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
					restarts += results[j].Restarts
				}
			}
		}
		b.ReportMetric(float64(restarts), "restarts")
	}
}

// The SVM MNIST row: the grid's most restart-heavy benchmark.
func BenchmarkFig9RowStepping(b *testing.B) { fig9Row(workload.Benchmarks()[0], true)(b) }
func BenchmarkFig9RowSegment(b *testing.B)  { fig9Row(workload.Benchmarks()[0], false)(b) }

// --- Batch inference: bit-sliced replay vs the sequential path -----------

// hotBatch is the body of one hot workload's batch benchmark at the full
// array.MaxLanes width: each op classifies one full batch of samples,
// on the bit-sliced engine or (batched false) on the sequential
// controller path. TestBatchThroughputRegression gates the ratio.
func hotBatch(hb workload.HotBatch, batched bool) func(b *testing.B) {
	return func(b *testing.B) {
		newClassifier := hb.NewSequential
		if batched {
			newClassifier = hb.NewBatched
		}
		classify, err := newClassifier()
		if err != nil {
			b.Fatal(err)
		}
		samples := hb.Samples(array.MaxLanes * hb.LaneWidth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := classify(samples); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/inference")
	}
}

// sparseBatch is the sample count of one perfbench serve-sparse request.
const sparseBatch = 8

// hotBatchSparse is the body of one hot workload's batch benchmark at
// a sparse request size: each op classifies sparseBatch samples on the
// bit-sliced engine, so the cost of replaying a nearly empty batch
// shows here.
func hotBatchSparse(hb workload.HotBatch) func(b *testing.B) {
	return func(b *testing.B) {
		classify, err := hb.NewBatched()
		if err != nil {
			b.Fatal(err)
		}
		samples := hb.Samples(sparseBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := classify(samples); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHotBatch(b *testing.B) {
	for _, hb := range workload.HotBatches() {
		b.Run(hb.Name+"/sequential", hotBatch(hb, false))
		b.Run(hb.Name+"/batched", hotBatch(hb, true))
		b.Run(fmt.Sprintf("%s/batched-%d", hb.Name, sparseBatch), hotBatchSparse(hb))
	}
}

// --- Figs. 10–12: breakdowns at 60 µW --------------------------------------

func benchmarkBreakdown(b *testing.B, cfg *mtj.Config) {
	var rows []bench.BreakdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ComputeBreakdown(cfg, 60e-6, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	backup, dead, restore := bench.AverageShares(rows)
	b.ReportMetric(100*backup, "%-backup")
	b.ReportMetric(100*dead, "%-dead")
	b.ReportMetric(100*restore, "%-restore")
}

func BenchmarkFig10BreakdownModernSTT(b *testing.B)    { benchmarkBreakdown(b, mtj.ModernSTT()) }
func BenchmarkFig11BreakdownProjectedSTT(b *testing.B) { benchmarkBreakdown(b, mtj.ProjectedSTT()) }
func BenchmarkFig12BreakdownSHE(b *testing.B)          { benchmarkBreakdown(b, mtj.ProjectedSHE()) }

// --- Fig. 9 crossover (Section IX) -----------------------------------------

func BenchmarkCrossover(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		var err error
		p, err = bench.CrossoverPowerW(mtj.ModernSTT(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p*1e3, "mW-crossover")
}

// --- ablations: design choices DESIGN.md calls out --------------------------

// BenchmarkAblationParallelism sweeps the column parallelism budget,
// the latency/power trade-off of Section IV-C.
func BenchmarkAblationParallelism(b *testing.B) {
	spec, err := workload.ByName("SVM MNIST (Bin)")
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	for _, budget := range []int{1024, 4096, 8192, 32768} {
		s := spec
		s.ParallelBudget = budget
		b.Run(fmtInt(budget), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = r.RunContinuous(s.Stream())
			}
			b.ReportMetric(res.OnLatency*1e6, "µs-latency")
			b.ReportMetric(res.TotalEnergy()*1e6, "µJ-energy")
		})
	}
}

// BenchmarkAblationCapacitor sweeps the energy-buffer size (the
// Capybara-style tuning knob of Section IX).
func BenchmarkAblationCapacitor(b *testing.B) {
	spec, err := workload.ByName("SVM ADULT")
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtj.ModernSTT()
	r := sim.NewRunner(energy.NewModel(cfg))
	for _, c := range []float64{10e-6, 100e-6, 1e-3} {
		b.Run(fmtCap(c), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				h := power.NewHarvester(power.Constant{W: 60e-6}, c, cfg.CapVMin, cfg.CapVMax)
				var err error
				res, err = r.Run(spec.Stream(), h)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TotalLatency(), "s-latency")
			b.ReportMetric(float64(res.Restarts), "restarts")
		})
	}
}

// --- microbenchmarks ---------------------------------------------------------

func BenchmarkGateEnergyModel(b *testing.B) {
	cfg := mtj.ModernSTT()
	var e float64
	for i := 0; i < b.N; i++ {
		e += mtj.GateEnergy(mtj.NAND2, cfg)
	}
	_ = e
}

// BenchmarkTileLogic1024Columns measures the scalar resistor-network
// path (one network solve + pulse integration per cell) — the engine
// interrupted operations still use.
func BenchmarkTileLogic1024Columns(b *testing.B) {
	tile := array.NewTile(mtj.ModernSTT(), 16, 1024)
	cols := make([]uint16, 1024)
	for i := range cols {
		cols[i] = uint16(i)
	}
	tile.SetActive(cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tile.ExecLogic(mtj.NAND2, []int{0, 2}, 1, array.FullPulse); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTileLogicPacked1024Columns measures the packed word-parallel
// path for the same operation: 64 columns per boolean word step from
// the memoized gate truth table.
func BenchmarkTileLogicPacked1024Columns(b *testing.B) {
	tile := array.NewTile(mtj.ModernSTT(), 16, 1024)
	cols := make([]uint16, 1024)
	for i := range cols {
		cols[i] = uint16(i)
	}
	tile.SetActive(cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tile.ExecLogicFull(mtj.NAND2, []int{0, 2}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- packed engine end-to-end: MachineRunner inference, packed vs scalar ---

// setupSVMMachine trains the ADULT SVM workload and maps it onto a
// bit-accurate machine with the first test sample loaded, returning the
// machine and its program. Shared by the packed-vs-scalar benchmarks
// and the observer-overhead smoke test.
func setupSVMMachine(tb testing.TB, forceScalar bool) (*array.Machine, isa.Program) {
	tb.Helper()
	ds := dataset.Adult(77, 24, 10)
	m, err := svm.Train(ds, svm.DefaultTrainConfig())
	if err != nil {
		tb.Fatal(err)
	}
	im, err := m.Quantize(10)
	if err != nil {
		tb.Fatal(err)
	}
	mp, err := svm.CompileParallelMapping(im, 1024, 8)
	if err != nil {
		tb.Fatal(err)
	}
	mach := array.NewMachine(mtj.ModernSTT(), 1, 1024, mp.Columns)
	mach.ForceScalar = forceScalar
	for j, rows := range mp.InputRows {
		for bi, row := range rows {
			bit := (ds.Test[0].X[j] >> bi) & 1
			for col := 0; col < mp.Columns; col++ {
				mach.Tiles[0].SetBit(row, col, bit)
			}
		}
	}
	return mach, mp.Prog
}

// benchmarkMachineRunnerSVM runs a full SV-parallel SVM inference on
// the bit-accurate machine under the MachineRunner (continuous power),
// with the logic engine pinned to the packed or scalar path. The ratio
// packed/scalar is the PR 3 headline recorded next to BENCH_1.json.
func benchmarkMachineRunnerSVM(b *testing.B, forceScalar bool) {
	mach, prog := setupSVMMachine(b, forceScalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := controller.New(controller.ProgramStore(prog), mach)
		res, err := sim.NewMachineRunner(c).Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("run did not complete")
		}
	}
}

func BenchmarkMachineRunnerSVMPacked(b *testing.B) { benchmarkMachineRunnerSVM(b, false) }
func BenchmarkMachineRunnerSVMScalar(b *testing.B) { benchmarkMachineRunnerSVM(b, true) }

// benchmarkMachineRunnerBNN runs a column-batched BNN inference (64
// samples per pass) through the MachineRunner, packed vs scalar.
func benchmarkMachineRunnerBNN(b *testing.B, forceScalar bool) {
	const feats = 64
	const batch = 64
	small := &dataset.Set{Name: "t", NumFeatures: feats, NumClasses: 10}
	for i := 0; i < 40; i++ {
		x := make([]int, feats)
		for j := range x {
			x[j] = (i*j + j%3) & 1
		}
		small.Train = append(small.Train, dataset.Sample{X: x, Label: i % 10})
	}
	small.Test = small.Train[:4]
	cfg := bnn.Config{Name: "t", In: feats, Hidden: []int{16}, Out: 10, InputBits: 1}
	net, err := bnn.Train(small, cfg, bnn.TrainConfig{Epochs: 2, LR: 0.002, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := bnn.CompileMapping(net, 1024, batch)
	if err != nil {
		b.Fatal(err)
	}
	mach := array.NewMachine(mtj.ModernSTT(), 1, 1024, batch)
	mach.ForceScalar = forceScalar
	for col := 0; col < batch; col++ {
		x := small.Train[col%len(small.Train)].X
		for i, row := range mp.InputRows {
			mach.Tiles[0].SetBit(row, col, x[i])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := controller.New(controller.ProgramStore(mp.Prog), mach)
		res, err := sim.NewMachineRunner(c).Run(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("run did not complete")
		}
	}
}

func BenchmarkMachineRunnerBNNPacked(b *testing.B) { benchmarkMachineRunnerBNN(b, false) }
func BenchmarkMachineRunnerBNNScalar(b *testing.B) { benchmarkMachineRunnerBNN(b, true) }

func BenchmarkInstructionEncodeDecode(b *testing.B) {
	in := isa.Logic(mtj.MAJ3, []int{0, 2, 4}, 1)
	for i := 0; i < b.N; i++ {
		w, err := isa.Encode(in)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := isa.Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerStep(b *testing.B) {
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 8, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
	}
	m := array.NewMachine(mtj.ModernSTT(), 1, 16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := controller.New(controller.ProgramStore(prog), m)
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceSimThroughput(b *testing.B) {
	r := sim.NewRunner(energy.NewModel(mtj.ModernSTT()))
	ops := make([]energy.Op, 10000)
	for i := range ops {
		ops[i] = energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 1024}
	}
	ops[0] = energy.Op{Kind: isa.KindAct, ActCols: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.RunContinuous(&sim.SliceStream{Ops: ops})
		if res.Instructions != 10000 {
			b.Fatal("wrong op count")
		}
	}
}

func BenchmarkSVMCompile(b *testing.B) {
	ds := dataset.Adult(77, 24, 10)
	m, err := svm.Train(ds, svm.DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	im, err := m.Quantize(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.CompileParallelMapping(im, 1024, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBNNFunctionalInference(b *testing.B) {
	// A 64-feature binarized set sized to the 1024-row budget.
	const feats = 64
	small := &dataset.Set{Name: "t", NumFeatures: feats, NumClasses: 10}
	for i := 0; i < 40; i++ {
		x := make([]int, feats)
		for j := range x {
			x[j] = (i*j + j%3) & 1
		}
		small.Train = append(small.Train, dataset.Sample{X: x, Label: i % 10})
	}
	small.Test = small.Train[:4]
	cfg := bnn.Config{Name: "t", In: feats, Hidden: []int{16}, Out: 10, InputBits: 1}
	net, err := bnn.Train(small, cfg, bnn.TrainConfig{Epochs: 2, LR: 0.002, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := bnn.CompileMapping(net, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := array.NewMachine(mtj.ModernSTT(), 1, 1024, 1)
	for i, row := range mp.InputRows {
		m.Tiles[0].SetBit(row, 0, small.Test[0].X[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := controller.New(controller.ProgramStore(mp.Prog), m)
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileMultiplier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bl := compile.NewBuilder(1024)
		bl.ActivateBroadcast([]uint16{0})
		x := bl.AllocWord(8, 0)
		y := bl.AllocWord(8, 0)
		bl.MulWords(x, y)
		if _, err := bl.Program(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSONICModel(b *testing.B) {
	_ = io.Discard
	for i := 0; i < b.N; i++ {
		pts, err := bench.ComputeFig9(mtj.ModernSTT(), []float64{5e-3}, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = pts
	}
}

func fmtInt(v int) string {
	switch {
	case v >= 1024 && v%1024 == 0:
		return fmtSmall(v/1024) + "k-cols"
	default:
		return fmtSmall(v) + "-cols"
	}
}

func fmtSmall(v int) string {
	digits := ""
	if v == 0 {
		return "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return digits
}

func fmtCap(c float64) string {
	return fmtSmall(int(c*1e6)) + "µF"
}

// BenchmarkAblationCheckpointInterval sweeps the checkpoint frequency
// (Section IV-D: per-instruction checkpointing vs. rarer commits).
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	spec, err := workload.ByName("SVM ADULT")
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtj.ModernSTT()
	r := sim.NewRunner(energy.NewModel(cfg))
	for _, interval := range []int{1, 8, 64} {
		b.Run(fmtSmall(interval)+"-instr", func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				h := power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				var err error
				res, err = r.RunWithCheckpointInterval(spec.Stream(), h, interval)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.BackupEnergy*1e9, "nJ-backup")
			b.ReportMetric(res.DeadEnergy*1e9, "nJ-dead")
		})
	}
}

// BenchmarkRobustnessStudy measures the Section II-D variation analysis.
func BenchmarkRobustnessStudy(b *testing.B) {
	var tol float64
	for i := 0; i < b.N; i++ {
		tol, _ = mtj.MinVariationTolerance(mtj.ProjectedSHE())
	}
	b.ReportMetric(tol*100, "%-min-tolerance-SHE")
}

// BenchmarkFFTComparison measures the Section X FFT workload.
func BenchmarkFFTComparison(b *testing.B) {
	var rows []bench.FFTRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ComputeFFT(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.System == "MOUSE Modern STT (intermittent-safe)" {
			b.ReportMetric(r.LatencySec*1e3, "ms-modern-stt")
		}
	}
}
