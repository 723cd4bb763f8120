package sim

import (
	"fmt"
	"testing"

	"mouse/internal/array"
	"mouse/internal/compile"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// TestFullFidelityStack is the maximal-fidelity integration test: the
// program lives in real MTJ instruction tiles (TileStore), the input
// arrives through a sensor buffer tile, execution runs under an
// energy-starved harvester with outages injected at energy-determined
// µ-phases, and the result must match a continuous-power run fetched
// from a plain program store.
func TestFullFidelityStack(t *testing.T) {
	cfg := mtj.ModernSTT()

	// Program: transfer two sensor rows into the data tile, then
	// compute their columnwise XOR (3 gates) and a popcount-free
	// summary gate.
	b := compile.NewBuilder(32)
	b.ActivateBroadcast([]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	x := b.Reserve(0)
	y := b.Reserve(2)
	xor := b.XOR(x, y)
	nand := b.NAND(x, y)
	tail, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// Prefix: sensor transfer (sensor is tile 1 of a 1-data-tile machine).
	prog := append(isa.Program{
		isa.Read(1, 0), isa.Write(0, 0),
		isa.Read(1, 1), isa.Write(0, 2),
	}, tail...)

	sample := []int{1, 0, 1, 1, 0, 0, 1, 0, // row 0
		0, 1, 1, 0, 1, 0, 1, 0} // row 1

	runOnce := func(useTiles, forceScalar bool, h *power.Harvester) (*array.Machine, Result) {
		m := array.NewMachine(cfg, 1, 32, 8)
		m.ForceScalar = forceScalar
		sensor := array.NewSensorBuffer(cfg, 2, 8)
		if got := m.AttachSensor(sensor); got != 1 {
			t.Fatalf("sensor tile at %d", got)
		}
		if err := sensor.Provide(sample); err != nil {
			t.Fatal(err)
		}
		var store controller.Store = controller.ProgramStore(prog)
		if useTiles {
			ts, err := controller.NewTileStore(cfg, prog, 64, 64)
			if err != nil {
				t.Fatal(err)
			}
			store = ts
		}
		c := controller.New(store, m)
		c.SetSensor(sensor)
		c.SensorWindow.Start, c.SensorWindow.End, c.SensorWindow.Enabled = 0, 4, true
		res, err := NewMachineRunner(c).Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}

	ref, _ := runOnce(false, false, nil)
	// Run the starved stack through both engines: the packed
	// word-parallel fast path (production) and the scalar
	// resistor-network path (ForceScalar). Both must see outages and both
	// must land on identical cell state.
	for _, forceScalar := range []bool{false, true} {
		starved := power.NewHarvester(power.Constant{W: 1.5e-6}, 2.5e-9, cfg.CapVMin, cfg.CapVMax)
		got, res := runOnce(true, forceScalar, starved)
		if res.Restarts == 0 {
			t.Fatalf("starved run (forceScalar=%v) saw no outages", forceScalar)
		}

		for col := 0; col < 8; col++ {
			for _, row := range []int{0, 2, xor.Row, nand.Row} {
				if got.Tiles[0].Bit(row, col) != ref.Tiles[0].Bit(row, col) {
					t.Fatalf("forceScalar=%v: row %d col %d diverged (restarts=%d)", forceScalar, row, col, res.Restarts)
				}
			}
			wantXor := sample[col] ^ sample[8+col]
			if got.Tiles[0].Bit(xor.Row, col) != wantXor {
				t.Fatalf("col %d: xor = %d, want %d", col, got.Tiles[0].Bit(xor.Row, col), wantXor)
			}
		}
	}
}

// TestPackedAndScalarRunsAreByteIdentical runs a full starved
// MachineRunner workload twice — packed fast path vs ForceScalar — and
// requires the entire simulation outcome to match exactly: every cell
// of every tile, the memory buffer, and the complete energy/latency
// breakdown.
func TestPackedAndScalarRunsAreByteIdentical(t *testing.T) {
	cfg := mtj.ModernSTT()
	b := compile.NewBuilder(64)
	b.ActivateBroadcast([]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	x := b.AllocWord(6, 0)
	y := b.AllocWord(6, 0)
	b.MulWords(x, y)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}

	run := func(forceScalar bool) (*array.Machine, Result) {
		m := array.NewMachine(cfg, 2, 64, 8)
		m.ForceScalar = forceScalar
		for c := 0; c < 8; c++ {
			for i, w := range x {
				m.Tiles[0].SetBit(w.Row, c, (c*3+5)>>i&1)
			}
			for i, w := range y {
				m.Tiles[0].SetBit(w.Row, c, (c+9)>>i&1)
			}
		}
		ctrl := controller.New(controller.ProgramStore(prog), m)
		h := power.NewHarvester(power.Constant{W: 1.2e-6}, 2.5e-9, cfg.CapVMin, cfg.CapVMax)
		res, err := NewMachineRunner(ctrl).Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}

	mp, rp := run(false)
	ms, rs := run(true)
	if rp.Restarts == 0 {
		t.Fatalf("starved run saw no outages")
	}
	if rp != rs {
		t.Fatalf("results diverge:\npacked %+v\nscalar %+v", rp, rs)
	}
	for ti := range mp.Tiles {
		for r := 0; r < mp.Tiles[ti].Rows(); r++ {
			for c := 0; c < mp.Tiles[ti].Cols(); c++ {
				if mp.Tiles[ti].Bit(r, c) != ms.Tiles[ti].Bit(r, c) {
					t.Fatalf("tile %d cell (%d,%d): packed %d scalar %d", ti, r, c, mp.Tiles[ti].Bit(r, c), ms.Tiles[ti].Bit(r, c))
				}
			}
		}
	}
	for i := range mp.Buffer {
		if mp.Buffer[i] != ms.Buffer[i] {
			t.Fatalf("buffer byte %d: packed %x scalar %x", i, mp.Buffer[i], ms.Buffer[i])
		}
	}
}

// lateActCuts counts the outages that cut an ACT at or past its
// register commit, where a restart re-latches that ACT's columns.
type lateActCuts struct {
	probe.Nop
	n int
}

func (l *lateActCuts) PulseInterrupted(ev probe.Interrupt) {
	if ev.Kind == isa.KindAct && ev.Frac >= actRegCommitFrac {
		l.n++
	}
}

// TestTraceLayerMatchesFunctionalLayer is the cross-layer consistency
// guarantee. Both layers run Runner's one stepping loop and its one
// restore-column rule, so for the same program the trace layer
// (stepping and segment engines) and the bit-accurate functional layer
// must return equal Results under continuous power and under every
// harvested supply of the grid — the same ErrNonTermination included.
// The grid must reach outages past an ACT's register commit, where the
// functional restart checks the loop's rule against the controller's
// non-volatile register.
func TestTraceLayerMatchesFunctionalLayer(t *testing.T) {
	cfg := mtj.ModernSTT()
	b := compile.NewBuilder(64)
	b.ActivateBroadcast([]uint16{0, 1, 2, 3})
	x := b.AllocWord(5, 0)
	y := b.AllocWord(5, 0)
	p := b.MulWords(x, y)
	b.Emit(isa.Read(0, p[0].Row))
	b.Emit(isa.WriteRot(0, p[1].Row, 2))
	mul, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	noInput := func(*array.Machine) error { return nil }
	cases := []struct {
		name  string
		prog  isa.Program
		rows  int
		input func(m *array.Machine) error
		grid  bool // also compare under the harvested grid
	}{
		{"multiplier", mul, 64, noInput, false},
		{"funcProgram", funcProgram(), 16, noInput, true},
		{"allKinds", allKindsProgram(), 16, loadAllKinds, true},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var agreed, stopped, late int
	for _, tc := range cases {
		// The trace layer prices with the functional runner's model,
		// including the machine-specific row width it derives.
		functional := func(h *power.Harvester, obs probe.Observer) (*MachineRunner, Result, error) {
			m := array.NewMachine(cfg, 2, tc.rows, 8)
			if err := tc.input(m); err != nil {
				t.Fatal(err)
			}
			mr := NewMachineRunner(controller.New(controller.ProgramStore(tc.prog), m))
			mr.Obs = obs
			res, err := mr.Run(h)
			return mr, res, err
		}
		mr, funcRes, err := functional(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traceRes := NewRunner(mr.Model).RunContinuous(StreamFromProgram(tc.prog, 2)); funcRes != traceRes {
			t.Fatalf("%s continuous: functional %#v, trace %#v", tc.name, funcRes, traceRes)
		}
		if !tc.grid {
			continue
		}
		for _, watts := range []float64{0.1e-6, 0.3e-6, 1e-6, 2e-6, 4e-6, 8e-6, 15e-6, 30e-6} {
			for _, capF := range []float64{0.2e-9, 0.5e-9, 1e-9, 2.5e-9, 5e-9} {
				name := fmt.Sprintf("%s %.3g W %.3g F", tc.name, watts, capF)
				harvester := func() *power.Harvester {
					return power.NewHarvester(power.Constant{W: watts}, capF, cfg.CapVMin, cfg.CapVMax)
				}
				var cuts lateActCuts
				_, want, wantErr := functional(harvester(), &cuts)
				if cuts.n > 0 {
					late++
				}
				for _, stepping := range []bool{true, false} {
					r := NewRunner(mr.Model)
					r.ForceStepping = stepping
					got, gotErr := r.Run(StreamFromProgram(tc.prog, 2), harvester())
					if errText(gotErr) != errText(wantErr) || got != want {
						t.Fatalf("%s (stepping=%v): trace %#v err %v, functional %#v err %v",
							name, stepping, got, gotErr, want, wantErr)
					}
				}
				if wantErr != nil {
					stopped++
				} else {
					agreed++
				}
			}
		}
	}
	if agreed == 0 || stopped == 0 || late == 0 {
		t.Errorf("grid exercised %d agreeing and %d non-terminating points, %d with an ACT cut past its register commit; want each at least once",
			agreed, stopped, late)
	}
	t.Logf("%d agreeing, %d non-terminating, %d with an ACT cut past its register commit", agreed, stopped, late)
}

// allKindsProgram is a small program whose inputs (tile 0, rows 0 and
// 2, seeded by loadAllKinds) flow through every instruction kind:
// presets, all gate shapes, a buffer read, a rotated cross-tile write,
// and a narrowing activation.
func allKindsProgram() isa.Program {
	return isa.Program{
		isa.ActRange(true, 0, 0, 8, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Preset(3, mtj.AP),
		isa.Logic(mtj.AND2, []int{0, 2}, 3),
		isa.Preset(5, mtj.P),
		isa.Logic(mtj.NOT, []int{2}, 5),
		isa.Read(0, 1),
		isa.WriteRot(1, 9, 3),
		isa.ActList(false, 0, []uint16{2, 5}),
		isa.Preset(7, mtj.P),
		isa.Logic(mtj.NOR2, []int{0, 2}, 7),
	}
}

// loadAllKinds seeds allKindsProgram's input rows with bits that differ
// across columns.
func loadAllKinds(m *array.Machine) error {
	const seed = 5
	for c := 0; c < 8; c++ {
		m.Tiles[0].SetBit(0, c, seed>>(c%6)&1)
		m.Tiles[0].SetBit(2, c, (seed+c)&1)
	}
	return nil
}

// TestLevelSwitchCounting: a workload alternating gate and preset
// operations crosses converter levels (Section IV-C's level-change
// share), and the counter sees it.
func TestLevelSwitchCounting(t *testing.T) {
	m := energy.NewModel(mtj.ModernSTT())
	r := NewRunner(m)
	ops := []energy.Op{}
	for i := 0; i < 10; i++ {
		ops = append(ops,
			energy.Op{Kind: isa.KindPreset, ActivePairs: 4},
			energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 4})
	}
	res := r.RunContinuous(&SliceStream{Ops: ops})
	if res.LevelSwitches == 0 {
		t.Fatalf("alternating preset/logic stream recorded no level switches")
	}
}
