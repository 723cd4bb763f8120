package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

func opsFixture(n int) []energy.Op {
	ops := []energy.Op{{Kind: isa.KindAct, ActCols: 64}}
	for len(ops) < n {
		ops = append(ops,
			energy.Op{Kind: isa.KindPreset, ActivePairs: 64},
			energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 64},
		)
	}
	return ops[:n]
}

// requireCompact fails unless runs is a compact encoding: every
// Count > 0 and no two adjacent runs equal.
func requireCompact(t *testing.T, runs []energy.OpRun) {
	t.Helper()
	for i, r := range runs {
		if r.Count <= 0 {
			t.Errorf("run %d %+v: count %d, want > 0", i, r.Op, r.Count)
		}
		if i > 0 && runs[i-1].Op == r.Op {
			t.Errorf("runs %d and %d both hold %+v", i-1, i, r.Op)
		}
	}
}

// expand returns the operations a run-length encoding enumerates.
func expand(runs []energy.OpRun) []energy.Op {
	var ops []energy.Op
	for _, r := range runs {
		for j := int64(0); j < r.Count; j++ {
			ops = append(ops, r.Op)
		}
	}
	return ops
}

func TestSliceStream(t *testing.T) {
	ops := opsFixture(7)
	ops = append(ops, ops[len(ops)-1], ops[len(ops)-1]) // a run of three
	runs := StreamOf(ops).Runs()
	requireCompact(t, runs)
	if got := expand(runs); !reflect.DeepEqual(got, ops) {
		t.Fatalf("encoding enumerates %+v, want %+v", got, ops)
	}
	if len(runs) != 7 || runs[6].Count != 3 {
		t.Fatalf("got %d runs ending in a run of %d, want 7 ending in 3: %+v", len(runs), runs[len(runs)-1].Count, runs)
	}
	if runs := StreamOf(nil).Runs(); len(runs) != 0 {
		t.Fatalf("empty stream has runs %+v", runs)
	}

	read := energy.Op{Kind: isa.KindRead, ActivePairs: 64}
	write := energy.Op{Kind: isa.KindWrite, ActivePairs: 64}
	in := []energy.OpRun{
		{Op: read, Count: 3},
		{Op: read, Count: 2},  // merges with the previous run
		{Op: write, Count: 0}, // dropped
		{Op: write, Count: -1},
		{Op: write, Count: 4},
		{Op: read, Count: 1},
	}
	want := []energy.OpRun{{Op: read, Count: 5}, {Op: write, Count: 4}, {Op: read, Count: 1}}
	if got := StreamOfRuns(in).Runs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StreamOfRuns = %+v, want %+v", got, want)
	}
	if in[0].Count != 3 {
		t.Fatalf("StreamOfRuns modified its input: %+v", in)
	}
}

func TestRunContinuousAccounting(t *testing.T) {
	m := energy.NewModel(mtj.ModernSTT())
	r := NewRunner(m)
	res := r.RunContinuous(StreamOf(opsFixture(100)))
	if !res.Completed {
		t.Fatalf("did not complete")
	}
	if res.Instructions != 100 {
		t.Errorf("instructions = %d", res.Instructions)
	}
	wantLat := 100 * m.CycleTime()
	if math.Abs(res.OnLatency-wantLat) > 1e-12 {
		t.Errorf("on latency %g, want %g", res.OnLatency, wantLat)
	}
	if res.OffLatency != 0 || res.DeadEnergy != 0 || res.RestoreEnergy != 0 {
		t.Errorf("continuous run has intermittent costs: %+v", res.Breakdown)
	}
	if res.ComputeEnergy <= 0 || res.BackupEnergy <= 0 {
		t.Errorf("energies not positive: %+v", res.Breakdown)
	}
	if res.BackupEnergy >= res.ComputeEnergy {
		t.Errorf("backup energy %g should be far below compute %g", res.BackupEnergy, res.ComputeEnergy)
	}
}

func harvester(cfg *mtj.Config, watts float64) *power.Harvester {
	return power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
}

func TestRunIntermittentCompletes(t *testing.T) {
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	res, err := r.Run(StreamOf(opsFixture(2000)), harvester(cfg, 60e-6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Instructions != 2000 {
		t.Fatalf("incomplete: %+v", res.Breakdown)
	}
	if res.OffLatency <= 0 {
		t.Errorf("no initial charging time recorded")
	}
}

func TestIntermittentMatchesContinuousComputeEnergy(t *testing.T) {
	// The useful work is identical regardless of the power supply; only
	// Dead/Restore/Off costs are added by intermittence.
	cfg := mtj.ProjectedSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	cont := r.RunContinuous(StreamOf(opsFixture(500)))
	inter, err := r.Run(StreamOf(opsFixture(500)), harvester(cfg, 60e-6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cont.ComputeEnergy-inter.ComputeEnergy) > 1e-15 {
		t.Errorf("compute energy differs: %g vs %g", cont.ComputeEnergy, inter.ComputeEnergy)
	}
	if math.Abs(cont.BackupEnergy-inter.BackupEnergy) > 1e-15 {
		t.Errorf("backup energy differs: %g vs %g", cont.BackupEnergy, inter.BackupEnergy)
	}
}

func TestLowPowerMeansMoreRestartsAndLatency(t *testing.T) {
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	// Big ops so the buffer drains quickly relative to the window.
	big := make([]energy.Op, 4000)
	for i := range big {
		big[i] = energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 16 * 1024}
	}
	big[0] = energy.Op{Kind: isa.KindAct, ActCols: 16 * 1024}

	low, err := r.Run(StreamOf(big), harvester(cfg, 60e-6))
	if err != nil {
		t.Fatal(err)
	}
	high, err := r.Run(StreamOf(big), harvester(cfg, 5e-3))
	if err != nil {
		t.Fatal(err)
	}
	if low.Restarts == 0 {
		t.Fatalf("60 µW run with heavy ops should incur restarts")
	}
	if low.TotalLatency() <= high.TotalLatency() {
		t.Errorf("lower power should mean higher latency: %g vs %g", low.TotalLatency(), high.TotalLatency())
	}
	if low.Restarts < high.Restarts {
		t.Errorf("lower power should mean at least as many restarts: %d vs %d", low.Restarts, high.Restarts)
	}
	if low.DeadEnergy <= 0 || low.RestoreEnergy <= 0 {
		t.Errorf("restarting run must record dead and restore energy: %+v", low.Breakdown)
	}
	// The paper: total energy is nearly independent of the power source
	// (Section IX); dead/restore overheads stay a small fraction.
	if low.TotalEnergy() > 1.5*high.TotalEnergy() {
		t.Errorf("energy blew up at low power: %g vs %g", low.TotalEnergy(), high.TotalEnergy())
	}
}

func TestNonTerminationDetected(t *testing.T) {
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	// An absurdly parallel op that no single discharge can pay for.
	ops := []energy.Op{{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 1 << 30}}
	_, err := r.Run(StreamOf(ops), harvester(cfg, 60e-6))
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("expected non-termination, got %v", err)
	}
}

func TestChargeFailureSurfaces(t *testing.T) {
	cfg := mtj.ModernSTT()
	r := NewRunner(energy.NewModel(cfg))
	h := power.NewHarvester(power.Constant{W: 0}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	if _, err := r.Run(StreamOf(opsFixture(10)), h); err == nil {
		t.Fatalf("zero-power source should fail to charge")
	}
}

func TestStreamFromProgram(t *testing.T) {
	p := isa.Program{
		isa.ActRange(true, 0, 0, 8, 1), // 8 cols × 4 tiles = 32 pairs
		isa.Preset(1, mtj.P),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.ActList(false, 1, []uint16{3}), // 1 pair
		isa.Logic(mtj.NOT, []int{0}, 1),
		isa.Read(0, 0),
		isa.ActRange(true, 0, 0, 8, 1), // back to 32 pairs
		isa.Preset(1, mtj.P),
	}
	runs := StreamFromProgram(p, 4).Runs()
	requireCompact(t, runs)
	want := []energy.OpRun{
		{Op: energy.Op{Kind: isa.KindAct, ActCols: 32}, Count: 1},
		{Op: energy.Op{Kind: isa.KindPreset, ActivePairs: 32}, Count: 2},
		{Op: energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 32}, Count: 1},
		{Op: energy.Op{Kind: isa.KindAct, ActCols: 1}, Count: 1},
		{Op: energy.Op{Kind: isa.KindLogic, Gate: mtj.NOT, ActivePairs: 1}, Count: 1},
		{Op: energy.Op{Kind: isa.KindRead}, Count: 1},
		{Op: energy.Op{Kind: isa.KindAct, ActCols: 32}, Count: 1},
		{Op: energy.Op{Kind: isa.KindPreset, ActivePairs: 32}, Count: 1},
	}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs:\n got %+v\nwant %+v", runs, want)
	}
}

// TestFailedRunLeavesStreamIntact: a run only reads its stream, so the
// stream a run aborted with ErrNonTermination still runs in full, on
// either engine, once the capacitor can hold an instruction.
func TestFailedRunLeavesStreamIntact(t *testing.T) {
	cfg := mtj.ModernSTT()
	s := StreamOf(opsFixture(40))
	for _, forced := range []bool{false, true} {
		r := NewRunner(energy.NewModel(cfg))
		r.ForceStepping = forced
		tiny := power.NewHarvester(power.Constant{W: 60e-6}, 1e-12, cfg.CapVMin, cfg.CapVMax)
		if _, err := r.Run(s, tiny); !errors.Is(err, ErrNonTermination) {
			t.Fatalf("stepping %v: tiny capacitor: got %v, want non-termination", forced, err)
		}
		res, err := r.Run(s, harvester(cfg, 60e-6))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Instructions != 40 {
			t.Fatalf("stepping %v: rerun retired %d instructions (completed %v), want all 40", forced, res.Instructions, res.Completed)
		}
	}
}

// TestRunEnergyConservation: over an intermittent run, everything the
// machine consumed must equal what the harvester delivered minus what
// remains in the buffer (no energy invented or silently lost, absent
// the VMax clamp).
func TestRunEnergyConservation(t *testing.T) {
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	r := NewRunner(m)
	ops := make([]energy.Op, 2000)
	for i := range ops {
		ops[i] = energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 8192}
	}
	ops[0] = energy.Op{Kind: isa.KindAct, ActCols: 8192}
	h := harvester(cfg, 60e-6)
	res, err := r.Run(StreamOf(ops), h)
	if err != nil {
		t.Fatal(err)
	}
	harvested := 60e-6 * h.Now()
	consumed := res.TotalEnergy()
	remaining := h.Cap.Energy()
	if diff := math.Abs(harvested - consumed - remaining); diff > harvested*1e-6 {
		t.Fatalf("energy not conserved: harvested %.4g = consumed %.4g + remaining %.4g (diff %.3g)",
			harvested, consumed, remaining, diff)
	}
}
