package sim

import (
	"errors"
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/power"
	"mouse/internal/probe"
)

// MachineRunner executes a real program on the bit-accurate machine under
// harvested power. When the buffer cannot pay for the upcoming cycle, the
// runner injects a power failure at exactly the µ-phase where the energy
// ran out, reboots the controller through its restore protocol, and
// resumes — an end-to-end demonstration that computation survives
// arbitrary interruption (Section V). Run is Runner's stepping loop
// driving the controller, so its accounting is the trace layer's.
//
// Fast/slow path selection: cycles that complete in full step through
// the machine with no Partial, so logic operations take the packed
// word-parallel engine, which evaluates each gate's switch function
// (array.Tile.ExecLogicFull). Only a
// cycle that dies inside PhaseExecute carries a per-column pulse profile
// (see phaseFor) and drops to the scalar resistor-network path, which
// integrates the partial pulse cell by cell. The two paths are
// bit-identical for full pulses — fidelity tests run entire starved
// workloads both ways and require byte-identical results — so outage
// semantics are exactly the seed's while the common case runs 64
// columns per word operation. Setting Machine.ForceScalar pins the
// scalar path for differential tests and benchmarks.
type MachineRunner struct {
	C     *controller.Controller
	Model *energy.Model

	// MaxChargeWait bounds one recharge wait, in seconds.
	MaxChargeWait float64

	// Obs receives the run's event stream (and is lent to the machine
	// for per-tile write events while Run executes, unless the machine
	// already has its own observer). Nil or probe.Nop disables emission.
	Obs probe.Observer
}

// NewMachineRunner wraps a controller with the energy model for its
// machine's configuration.
func NewMachineRunner(c *controller.Controller) *MachineRunner {
	m := energy.NewModel(c.Machine().Cfg)
	// Price row transfers at the machine's actual row width rather than
	// the full-scale 1024-column default.
	if len(c.Machine().Tiles) > 0 {
		m.RowBits = c.Machine().Tiles[0].Cols()
	}
	return &MachineRunner{
		C:             c,
		Model:         m,
		MaxChargeWait: DefaultMaxChargeWait,
	}
}

// phaseFor maps the fraction of a cycle that completed before the outage
// to the controller µ-phase where execution stopped, with the array
// pulse-length fraction for mid-execute failures. The execute phase
// occupies the bulk of the cycle; the bookkeeping writes sit at the end
// (Section IV-B).
func phaseFor(frac float64) (controller.Phase, *array.Partial) {
	switch {
	case frac < 0.05:
		return controller.PhaseFetch, nil
	case frac < 0.85:
		pulse := (frac - 0.05) / 0.80
		return controller.PhaseExecute, &array.Partial{
			Columns: int(pulse * float64(isa.Cols)),
			Pulse:   func(int) float64 { return pulse },
		}
	case frac < actRegCommitFrac:
		return controller.PhaseWriteActReg, nil
	case frac < 0.95:
		return controller.PhaseWritePC, nil
	default:
		return controller.PhaseCommitPC, nil
	}
}

// actCols is the column count an instruction latches across nTiles
// data tiles: an ACT's raw column list (not width filtered) times its
// broadcast fan-out, and 0 for every other kind.
func actCols(in isa.Instruction, nTiles int) int {
	if in.Kind != isa.KindAct {
		return 0
	}
	n := len(in.ActiveColumns())
	if in.Broadcast {
		n *= nTiles
	}
	return n
}

// instrTile reports the tile an instruction addresses, or -1 for
// broadcast and tile-less operations (logic and preset fan out across
// every data tile).
func instrTile(in isa.Instruction) int {
	switch in.Kind {
	case isa.KindRead, isa.KindWrite:
		return int(in.Tile)
	case isa.KindAct:
		if !in.Broadcast {
			return int(in.Tile)
		}
	}
	return -1
}

// controllerTarget drives the bit-accurate machine through its
// controller.
type controllerTarget struct{ c *controller.Controller }

// peek describes the instruction at the PC as an Op at the machine's
// current activation.
func (t controllerTarget) peek() (energy.Op, int, bool) {
	in, ok := t.c.Peek()
	if !ok {
		return energy.Op{}, -1, false
	}
	m := t.c.Machine()
	return energy.OpOf(in, m.ActivePairs(), actCols(in, len(m.Tiles))), instrTile(in), true
}

func (t controllerTarget) commit() (bool, error) { return t.c.Step() }

// interrupt injects the failure at the µ-phase the energy ran out.
func (t controllerTarget) interrupt(frac float64) error {
	ph, partial := phaseFor(frac)
	if err := t.c.StepWithFailure(ph, partial); !errors.Is(err, controller.ErrPowerFailure) {
		return fmt.Errorf("sim: expected injected power failure, got %v", err)
	}
	return nil
}

// restart reboots the controller, which re-issues the ACT in its
// non-volatile register. That ACT must latch the cols columns the loop
// charged: the machine checks the loop's register rule at every restart.
func (t controllerTarget) restart(cols int) error {
	t.c.PowerFail()
	if err := t.c.Restart(); err != nil {
		return err
	}
	act, _ := t.c.NV.Act()
	if got := actCols(act, len(t.c.Machine().Tiles)); got != cols {
		return fmt.Errorf("sim: restart re-latched %d columns, the loop charged %d", got, cols)
	}
	return nil
}

// Run executes the program to completion under harvester h (or under
// continuous power if h is nil), returning the EH-model accounting. It
// is Runner's stepping loop driving the controller at checkpoint
// interval 1.
func (r *MachineRunner) Run(h *power.Harvester) (Result, error) {
	// Lend the observer to the machine for per-tile write events, unless
	// the caller already wired one there.
	if probe.Enabled(r.Obs) {
		if m := r.C.Machine(); m.Obs == nil {
			m.Obs = r.Obs
			defer func() { m.Obs = nil }()
		}
	}
	run := Runner{Model: r.Model, MaxChargeWait: r.MaxChargeWait, Obs: r.Obs}
	return run.step(controllerTarget{r.C}, h, 1)
}

// StreamFromProgram turns a concrete program into an OpStream by
// tracking the activation state analytically (without simulating cell
// contents): ACT instructions update the active set; logic and preset
// operations are priced at the resulting (tile, column) parallelism.
// nTiles is the machine's data-tile count.
func StreamFromProgram(p isa.Program, nTiles int) OpStream {
	return &programStream{p: p, nTiles: nTiles}
}

type programStream struct {
	p      isa.Program
	nTiles int
	pos    int
	pairs  int // current active (tile, column) pairs
}

func (s *programStream) Reset() { s.pos, s.pairs = 0, 0 }

func (s *programStream) Next() (energy.Op, bool) {
	if s.pos >= len(s.p) {
		return energy.Op{}, false
	}
	in := s.p[s.pos]
	s.pos++
	cols := actCols(in, s.nTiles)
	if in.Kind == isa.KindAct {
		s.pairs = cols
	}
	return energy.OpOf(in, s.pairs, cols), true
}

// Runs implements RunStream by replaying a fresh clone of the stream —
// the activation tracking makes the op sequence stateful, so the
// encoding is derived from the same Next() the stepping path would see.
func (s *programStream) Runs() []energy.OpRun {
	clone := &programStream{p: s.p, nTiles: s.nTiles}
	return encodeRuns(clone.Next)
}
