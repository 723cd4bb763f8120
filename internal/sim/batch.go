package sim

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// RunnerBatch executes one program over up to array.MaxLanes
// independent input lanes under continuous power, on the bit-sliced
// path: the program is flattened once (array.Flatten) and replayed once
// on a reused lane-sliced arena (array.BatchMachine.Replay), every word
// operation advancing all lanes. Continuous-power accounting does not
// depend on the data, so the first Run prices the program once with
// MachineRunner.Run(nil) on an unloaded machine and every lane reuses
// that Result: it is bit-identical to a sequential MachineRunner run of
// the lane.
//
// Intermittent execution has no batched form: an outage lands at one
// lane's own µ-phase, the interrupted pulse integrates per cell, and
// checkpoint/replay state is per machine. A lane that needs a harvester
// or an observer runs alone through MachineRunner, as fault.SweepBatch
// does through fault.BatchWorkload.Lane and fault.Sweep.
type RunnerBatch struct {
	cfg  *mtj.Config
	w    BatchWorkload
	flat *array.FlatProgram

	arena   *array.BatchMachine
	scratch *array.Machine

	base       Result
	basePriced bool
}

// BatchWorkload is one program executed identically across lanes, with
// per-lane inputs delivered through Load.
type BatchWorkload struct {
	// Prog is the shared instruction stream.
	Prog isa.Program

	// Tiles, Rows, Cols is the machine geometry every lane runs on.
	Tiles, Rows, Cols int

	// Load writes lane's input cells through set (tile, row, col, bit).
	// It runs against a reset machine state, so it only needs to set the
	// cells the program reads before writing.
	Load func(lane int, set func(tile, row, col, bit int)) error
}

// BatchRun configures one Run call; a nil pointer is the zero value.
type BatchRun struct {
	// Visit, if non-nil, receives each lane's final machine state after
	// execution. The machine is a shared scratch instance refilled per
	// lane — copy out what you need.
	Visit func(lane int, m *array.Machine) error
}

// NewRunnerBatch compiles the workload for batched replay. The
// flattening performs all per-instruction validation once; Run performs
// none.
func NewRunnerBatch(cfg *mtj.Config, w BatchWorkload) (*RunnerBatch, error) {
	if w.Load == nil {
		return nil, fmt.Errorf("sim: batch workload has no input loader")
	}
	flat, err := array.Flatten(w.Prog, cfg, w.Tiles, w.Rows, w.Cols)
	if err != nil {
		return nil, err
	}
	return &RunnerBatch{
		cfg:     cfg,
		w:       w,
		flat:    flat,
		arena:   array.NewBatchMachine(w.Tiles, w.Rows, w.Cols),
		scratch: array.NewMachine(cfg, w.Tiles, w.Rows, w.Cols),
	}, nil
}

// Run executes lanes lanes of the workload through one shared
// bit-sliced replay and returns one Result per lane.
func (r *RunnerBatch) Run(lanes int, opts *BatchRun) ([]Result, error) {
	if lanes <= 0 || lanes > array.MaxLanes {
		return nil, fmt.Errorf("sim: lane count %d out of range [1, %d]", lanes, array.MaxLanes)
	}
	var visit func(lane int, m *array.Machine) error
	if opts != nil {
		visit = opts.Visit
	}
	// The arena is reused across Runs (alloc-free steady state); Reset
	// restores the fresh-machine origin each sequential run starts from,
	// so programs that read a cell before writing it still agree with
	// the scalar path bit for bit.
	r.arena.Reset()
	for lane := 0; lane < lanes; lane++ {
		l := lane
		err := r.w.Load(lane, func(tile, row, col, bit int) {
			r.arena.SetLaneBit(l, tile, row, col, bit)
		})
		if err != nil {
			return nil, fmt.Errorf("sim: loading lane %d: %w", lane, err)
		}
	}
	if err := r.arena.Replay(r.flat, r.arena.Cols()); err != nil {
		return nil, err
	}
	if !r.basePriced {
		m := array.NewMachine(r.cfg, r.w.Tiles, r.w.Rows, r.w.Cols)
		base, err := NewMachineRunner(controller.New(controller.ProgramStore(r.w.Prog), m)).Run(nil)
		if err != nil {
			return nil, err
		}
		r.base, r.basePriced = base, true
	}
	out := make([]Result, lanes)
	for lane := range out {
		out[lane] = r.base
	}
	if visit != nil {
		for lane := 0; lane < lanes; lane++ {
			if err := r.arena.StoreLane(lane, r.scratch); err != nil {
				return nil, err
			}
			if err := visit(lane, r.scratch); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
