// Package fault is MOUSE's crash-equivalence fault-injection engine.
//
// The paper's headline intermittency claim (Sections I and V) is that
// idempotent MTJ gates plus the dual-PC commit protocol give free
// checkpoints: a power loss at *any* point costs at most one re-executed
// instruction and never corrupts state. Property tests under harvested
// traces only exercise the outages that happen to occur; this package
// makes the claim adversarial. It systematically crashes a run at every
// instruction boundary and at swept intra-instruction µ-phase fractions,
// then differentially checks each crashed run against a continuous-power
// golden run: byte-identical final cells and memory buffer, identical
// committed-instruction counts, exactly one outage, and at most one
// replayed instruction per outage.
//
// A Workload is a program compiled once, with its geometry and input
// loader. One sweep engine (RunGolden, Inject, Sweep) runs it on either
// layer of package sim:
//
//   - The bit-accurate machine layer: a real controller over an
//     array.Machine, outages injected at the exact µ-phase where the
//     energy ran out. State equivalence is checked cell by cell.
//   - The trace layer: the same program as an analytic OpStream, where
//     equivalence means identical committed work and bounded dead energy.
//
// The adversarial supply is Injector: a power.Source pre-charged with
// exactly enough energy to die at the scheduled point, recovering the
// moment the outage fires. Enumeration parallelizes over injection
// points on the bench worker pool; results are index-ordered, so serial
// and parallel sweeps produce identical reports.
package fault

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
)

// Workload is one compiled program with the machine it deploys onto:
// the geometry and the per-run input loader. It is plain data, built
// once by its constructor; every injected run reads the same program,
// so Load must be deterministic and safe to call from concurrent sweep
// workers.
type Workload struct {
	Name string
	Cfg  *mtj.Config
	Prog isa.Program

	// Tiles/Rows/Cols is the deployed geometry.
	Tiles, Rows, Cols int

	// Load seeds a fresh machine with the workload's inputs. The trace
	// layer prices the program alone and never calls it.
	Load func(*array.Machine) error
}

// ForceScalar returns a variant of the workload whose machine is pinned
// to the scalar resistor-network logic path, so sweeps cover both
// execution engines.
func (w Workload) ForceScalar() Workload {
	load := w.Load
	w.Name += " (scalar)"
	w.Load = func(m *array.Machine) error {
		m.ForceScalar = true
		return load(m)
	}
	return w
}

// model is the energy model both layers price the workload with: row
// transfers at the machine's actual row width.
func (w Workload) model() *energy.Model {
	m := energy.NewModel(w.Cfg)
	m.RowBits = w.Cols
	return m
}

// run executes one fresh run of the workload on the layer under h (nil
// is continuous power), reporting events to obs. This is the only place
// the two layers differ: the machine layer steps a controller over a
// freshly loaded array.Machine and also returns its final state; the
// trace layer prices the program as an operation stream and returns no
// state.
func (w Workload) run(layer string, h *power.Harvester, obs probe.Observer) (sim.Result, *snapshot, error) {
	if layer == LayerTrace {
		r := sim.NewRunner(w.model())
		r.Obs = obs
		res, err := r.Run(sim.StreamFromProgram(w.Prog, w.Tiles), h)
		return res, nil, err
	}
	m := array.NewMachine(w.Cfg, w.Tiles, w.Rows, w.Cols)
	if err := w.Load(m); err != nil {
		return sim.Result{}, nil, fmt.Errorf("loading inputs: %w", err)
	}
	c := controller.New(controller.ProgramStore(w.Prog), m)
	r := sim.NewMachineRunner(c)
	r.Obs = obs
	res, err := r.Run(h)
	return res, capture(c), err
}

// Point is one scheduled injection: crash at the given µ-phase fraction
// of the instruction at Index (Frac 0 is the boundary just before it).
type Point struct {
	Index int
	Frac  float64
}

// Verdict is one injection point's differential outcome.
type Verdict struct {
	Index int     `json:"index"`
	Frac  float64 `json:"frac"`
	// WindowJ is the pre-charged energy window that realized the crash.
	WindowJ float64 `json:"window_j"`
	// Equivalent reports crash-equivalence with the golden run; Mismatch
	// holds the first divergence otherwise.
	Equivalent bool   `json:"equivalent"`
	Mismatch   string `json:"mismatch,omitempty"`
	// Replays and Restarts are the crashed run's counters: a passing
	// verdict has exactly one restart and at most one replay.
	Replays  uint64 `json:"replays"`
	Restarts uint64 `json:"restarts"`
	// DeadJ, RestoreJ, and OffSeconds are the energy/latency the outage
	// cost over the golden run.
	DeadJ      float64 `json:"dead_j"`
	RestoreJ   float64 `json:"restore_j"`
	OffSeconds float64 `json:"off_seconds"`
}

// Golden is the continuous-power reference a sweep injects against on
// one layer: the run accounting, the per-instruction energy schedule
// that turns instruction indices into energy windows, and on the
// machine layer the final machine state.
type Golden struct {
	Result sim.Result
	// Energies[i] is instruction i's compute+backup draw in joules; the
	// injector window for point (k, f) is sum(Energies[:k]) + f*Energies[k].
	Energies []float64

	layer    string
	prefix   []float64 // prefix[i] = sum(Energies[:i])
	maxE     float64   // costliest single instruction, joules
	snap     *snapshot // nil on the trace layer
	recoverW float64
}

// Points returns the number of whole-instruction boundaries available
// for injection (one per executed instruction).
func (g *Golden) Points() int { return len(g.Energies) }

// windowFor maps an injection point to its energy window.
func (g *Golden) windowFor(p Point) float64 {
	return g.prefix[p.Index] + p.Frac*g.Energies[p.Index]
}

// energyRecorder captures the golden run's per-instruction energy
// schedule from the probe stream.
type energyRecorder struct {
	probe.Nop
	energies []float64
}

func (rec *energyRecorder) InstrRetired(ev probe.Instr) {
	rec.energies = append(rec.energies, ev.Energy+ev.Backup)
}

// recoverHeadroom scales the peak single-cycle demand into the
// injector's recovery power, so the recovered run completes without a
// second outage even for the restore phase.
const recoverHeadroom = 8

// RunGolden executes the workload once on the layer (LayerMachine or
// LayerTrace) under continuous power and captures the reference for a
// sweep.
func RunGolden(w Workload, layer string) (*Golden, error) {
	if layer != LayerMachine && layer != LayerTrace {
		return nil, fmt.Errorf("fault: unknown layer %q (%s, %s)", layer, LayerMachine, LayerTrace)
	}
	rec := &energyRecorder{}
	res, snap, err := w.run(layer, nil, rec)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run of %s: %w", w.Name, err)
	}
	if len(rec.energies) == 0 {
		return nil, fmt.Errorf("fault: %s executed no instructions", w.Name)
	}
	g := &Golden{Result: res, Energies: rec.energies, layer: layer, snap: snap}
	g.prefix = prefixSums(rec.energies)
	g.maxE = maxFloat(rec.energies)
	// Recovery must out-pay the hungriest cycle and the widest possible
	// restore (every column of every tile re-latched).
	model := w.model()
	peak := g.maxE
	if re := model.Restore(isa.Cols * w.Tiles); re > peak {
		peak = re
	}
	g.recoverW = recoverHeadroom * peak / model.CycleTime()
	return g, nil
}

func prefixSums(es []float64) []float64 {
	prefix := make([]float64, len(es))
	sum := 0.0
	for i, e := range es {
		prefix[i] = sum
		sum += e
	}
	return prefix
}

func maxFloat(es []float64) float64 {
	m := 0.0
	for _, e := range es {
		if e > m {
			m = e
		}
	}
	return m
}

// snapshot is the complete non-volatile outcome of a machine run: every
// cell of every tile (read out row by row), the memory buffer, and the
// final program counter.
type snapshot struct {
	tiles  [][][]byte
	buffer []byte
	pc     uint64
}

func capture(c *controller.Controller) *snapshot {
	s := captureMachine(c.Machine())
	s.pc = c.NV.PC()
	return s
}

// captureMachine snapshots the machine-only state (cells and buffer,
// no program counter) — the comparison unit for the batched engine,
// which replays flat programs without a controller.
func captureMachine(m *array.Machine) *snapshot {
	s := &snapshot{buffer: append([]byte(nil), m.Buffer...)}
	for _, t := range m.Tiles {
		rows := make([][]byte, t.Rows())
		for r := range rows {
			rows[r] = make([]byte, (t.Cols()+7)/8)
			if err := t.ReadRow(r, rows[r]); err != nil {
				// Rows()/Cols() bound the loop; a read can only fail on a
				// bad row index, which cannot happen here.
				panic(err)
			}
		}
		s.tiles = append(s.tiles, rows)
	}
	return s
}

// diff reports the first divergence between two snapshots, or "".
func (s *snapshot) diff(o *snapshot) string {
	if d := s.diffState(o); d != "" {
		return d
	}
	if s.pc != o.pc {
		return fmt.Sprintf("final PC %d vs %d", s.pc, o.pc)
	}
	return ""
}

// diffState compares the machine-only state (cells and buffer),
// skipping the program counter — the batched replay has none.
func (s *snapshot) diffState(o *snapshot) string {
	if len(s.tiles) != len(o.tiles) {
		return fmt.Sprintf("tile count %d vs %d", len(s.tiles), len(o.tiles))
	}
	for ti := range s.tiles {
		if len(s.tiles[ti]) != len(o.tiles[ti]) {
			return fmt.Sprintf("tile %d row count %d vs %d", ti, len(s.tiles[ti]), len(o.tiles[ti]))
		}
		for r := range s.tiles[ti] {
			if string(s.tiles[ti][r]) != string(o.tiles[ti][r]) {
				return fmt.Sprintf("tile %d row %d cells diverge", ti, r)
			}
		}
	}
	if string(s.buffer) != string(o.buffer) {
		return "memory buffer diverges"
	}
	return ""
}

// verdictFor fills the protocol-level fields every layer shares and
// checks the at-most-one-re-execution contract: exactly one outage,
// at most one replay, committed work identical to golden, dead energy
// bounded by one partial attempt plus one re-execution of the costliest
// instruction (the scheduled window can land an ulp before its target
// boundary, so the bound is program-wide rather than per-index).
func verdictFor(p Point, windowJ float64, res sim.Result, runErr error, g *Golden) Verdict {
	v := Verdict{
		Index: p.Index, Frac: p.Frac, WindowJ: windowJ,
		Replays: res.Replays, Restarts: res.Restarts,
		DeadJ: res.DeadEnergy, RestoreJ: res.RestoreEnergy, OffSeconds: res.OffLatency,
	}
	switch {
	case runErr != nil:
		v.Mismatch = fmt.Sprintf("run failed: %v", runErr)
	case !res.Completed:
		v.Mismatch = "run did not complete"
	case res.Restarts != 1:
		v.Mismatch = fmt.Sprintf("expected exactly one outage, saw %d", res.Restarts)
	case res.Replays > 1:
		v.Mismatch = fmt.Sprintf("%d replays for one outage (claim: at most one)", res.Replays)
	case res.Instructions != g.Result.Instructions:
		// The dual-PC protocol rolls the interrupted instruction back, so
		// the crashed run commits each program position exactly once (the
		// replayed commit is one of them, flagged Replay): the commit
		// count must equal the golden run's.
		v.Mismatch = fmt.Sprintf("committed %d instructions, golden %d", res.Instructions, g.Result.Instructions)
	case res.DeadEnergy > 2*g.maxE*(1+1e-9):
		v.Mismatch = fmt.Sprintf("dead energy %.3g J exceeds one re-execution bound %.3g J", res.DeadEnergy, 2*g.maxE)
	}
	v.Equivalent = v.Mismatch == ""
	return v
}
