package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

// funcProgram builds a program exercising all instruction kinds whose
// results land in deterministic cells.
func funcProgram() isa.Program {
	return isa.Program{
		isa.ActRange(true, 0, 0, 4, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1), // NAND of zeros = 1
		isa.Preset(3, mtj.AP),
		isa.Logic(mtj.AND2, []int{0, 2}, 3), // AND of zeros = 0
		isa.Preset(5, mtj.P),
		isa.Logic(mtj.NOT, []int{1 + 1}, 5), // NOT row2(=0) = 1... row 2 even
		isa.Read(0, 1),
		isa.Write(1, 9),
		isa.ActList(false, 0, []uint16{2}),
		isa.Preset(7, mtj.P),
		isa.Logic(mtj.NOR2, []int{0, 2}, 7), // NOR(0,0)=1 in tile0 col2 only
	}
}

func funcRig(cfg *mtj.Config) (*controller.Controller, *array.Machine) {
	m := array.NewMachine(cfg, 2, 16, 8)
	c := controller.New(controller.ProgramStore(funcProgram()), m)
	return c, m
}

func snapshot(m *array.Machine) []int {
	var out []int
	for _, t := range m.Tiles {
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				out = append(out, t.Bit(r, c))
			}
		}
	}
	return out
}

func TestMachineRunnerContinuous(t *testing.T) {
	cfg := mtj.ModernSTT()
	c, m := funcRig(cfg)
	r := NewMachineRunner(c)
	res, err := r.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Instructions != uint64(len(funcProgram())) {
		t.Fatalf("run incomplete: %+v", res.Breakdown)
	}
	if m.Tiles[0].Bit(1, 0) != 1 { // NAND(0,0)
		t.Errorf("NAND result missing")
	}
	if m.Tiles[1].Bit(9, 0) != 1 { // copied row
		t.Errorf("copy missing")
	}
	if m.Tiles[0].Bit(7, 2) != 1 || m.Tiles[0].Bit(7, 0) != 0 {
		t.Errorf("narrowed NOR wrong")
	}
	if res.Restarts != 0 || res.DeadEnergy != 0 {
		t.Errorf("continuous run recorded outages")
	}
}

// TestMachineRunnerIntermittentMatchesContinuous is the end-to-end
// guarantee: under a starved supply that forces outages at
// energy-determined µ-phases, the final non-volatile state is identical
// to the continuous-power run.
func TestMachineRunnerIntermittentMatchesContinuous(t *testing.T) {
	cfg := mtj.ModernSTT()
	refC, refM := funcRig(cfg)
	if _, err := NewMachineRunner(refC).Run(nil); err != nil {
		t.Fatal(err)
	}
	want := snapshot(refM)

	c, m := funcRig(cfg)
	r := NewMachineRunner(c)
	// Shrink the window so outages strike mid-program: use a tiny
	// dedicated capacitor barely above per-instruction cost.
	h := power.NewHarvester(power.Constant{W: 1e-6}, 2e-9, cfg.CapVMin, cfg.CapVMax)
	res, err := r.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("intermittent run incomplete")
	}
	got := snapshot(m)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("state diverged at cell %d (restarts=%d)", i, res.Restarts)
		}
	}
	if res.Restarts == 0 {
		t.Skipf("no restarts triggered; tighten the energy window") // should not happen
	}
	if res.DeadEnergy <= 0 || res.RestoreEnergy <= 0 {
		t.Errorf("restarting run must record dead and restore costs: %+v", res.Breakdown)
	}
	if res.OffLatency <= 0 {
		t.Errorf("no charging time recorded")
	}
}

func TestMachineRunnerSweepManyWindows(t *testing.T) {
	// Sweep capacitor sizes so outages land at many different µ-phases
	// and instruction boundaries; every run must converge to the same
	// final state.
	cfg := mtj.ModernSTT()
	refC, refM := funcRig(cfg)
	if _, err := NewMachineRunner(refC).Run(nil); err != nil {
		t.Fatal(err)
	}
	want := snapshot(refM)

	for _, capF := range []float64{1.5e-9, 2e-9, 3e-9, 5e-9, 8e-9, 2e-8} {
		c, m := funcRig(cfg)
		r := NewMachineRunner(c)
		h := power.NewHarvester(power.Constant{W: 2e-6}, capF, cfg.CapVMin, cfg.CapVMax)
		res, err := r.Run(h)
		if err != nil {
			t.Fatalf("cap %g: %v", capF, err)
		}
		got := snapshot(m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cap %g: state diverged at cell %d (restarts=%d)", capF, i, res.Restarts)
			}
		}
	}
}

func TestMachineRunnerNonTermination(t *testing.T) {
	cfg := mtj.ModernSTT()
	c, _ := funcRig(cfg)
	r := NewMachineRunner(c)
	// A capacitor so small that not even one instruction fits.
	h := power.NewHarvester(power.Constant{W: 1e-9}, 1e-12, cfg.CapVMin, cfg.CapVMax)
	if _, err := r.Run(h); err == nil {
		t.Fatalf("expected non-termination or charge failure")
	}
}

// TestMachineRunnerRestoreGap: the second ACT fits one discharge
// window on its own but not the window left after the restore that
// precedes its retry, so the functional layer must stop instead of
// retrying forever.
func TestMachineRunnerRestoreGap(t *testing.T) {
	cfg := mtj.ModernSTT()
	act := isa.ActRange(true, 0, 0, 8, 1)
	c := controller.New(controller.ProgramStore(isa.Program{act, act}), array.NewMachine(cfg, 2, 16, 8))
	r := NewMachineRunner(c)
	op := energy.OpOf(act, 16, 16)
	gapJ := r.Model.Energy(op) + r.Model.Backup(op) + r.Model.Restore(16)/2
	vOn := math.Sqrt(2*gapJ/cfg.CapC + cfg.CapVMin*cfg.CapVMin)
	h := power.NewHarvester(power.Constant{W: 0.1e-6}, cfg.CapC, cfg.CapVMin, vOn)
	var res Result
	var err error
	withDeadline(t, 10*time.Second, func() { res, err = r.Run(h) })
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("got %v, want ErrNonTermination", err)
	}
	if res.Instructions != 1 || res.Restarts != 1 {
		t.Errorf("stopped after %d instructions and %d restarts, want the first ACT retired and one outage on the second", res.Instructions, res.Restarts)
	}
}

func TestPhaseForMapping(t *testing.T) {
	cases := []struct {
		frac float64
		want controller.Phase
	}{
		{0.0, controller.PhaseFetch},
		{0.04, controller.PhaseFetch},
		{0.5, controller.PhaseExecute},
		{0.86, controller.PhaseWriteActReg},
		{0.92, controller.PhaseWritePC},
		{0.99, controller.PhaseCommitPC},
	}
	for _, c := range cases {
		got, _ := phaseFor(c.frac)
		if got != c.want {
			t.Errorf("phaseFor(%g) = %v, want %v", c.frac, got, c.want)
		}
	}
	_, partial := phaseFor(0.5)
	if partial == nil || partial.Pulse == nil {
		t.Fatalf("execute-phase interrupt missing pulse profile")
	}
	if p := partial.Pulse(0); p <= 0 || p >= 1 {
		t.Errorf("pulse fraction %g out of (0,1)", p)
	}
}
