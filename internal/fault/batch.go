package fault

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/sim"
	"mouse/internal/svm"
)

// Batched-inference coverage: the bit-sliced engine only runs on
// continuous power (an interrupted lane runs alone on the scalar
// MachineRunner path), so its intermittency story decomposes into two
// obligations this file sweeps together:
//
//  1. The batched fast path must be state-identical to each lane's
//     golden continuous run, and the one unloaded pass that prices a
//     batch must equal each lane's golden accounting — otherwise a
//     deployment that batches when energy is plentiful and runs lanes
//     alone when it is not would compute different answers, or pay
//     different prices, depending on the weather.
//  2. Each lane's scalar run — the path a harvested deployment
//     actually executes — must be crash-equivalent at every injection
//     point with at most one replay, exactly like every other workload.

// BatchWorkload is a batched bit-accurate workload: one shared program
// replayed across lanes with per-lane inputs.
type BatchWorkload struct {
	Name string
	Cfg  *mtj.Config
	// Lanes is the batch width under test (1–64).
	Lanes int
	// Prog is the shared instruction stream.
	Prog isa.Program
	// Tiles/Rows/Cols is the machine geometry every lane runs on.
	Tiles, Rows, Cols int
	// Load seeds a fresh machine with lane's inputs. The batched replay
	// and the scalar lanes both load through it.
	Load func(lane int, m *array.Machine) error
}

// Lane is the scalar per-lane workload: the shared program over a
// fresh machine seeded with that lane's inputs — what a harvested
// deployment runs for the lane.
func (w BatchWorkload) Lane(lane int) Workload {
	return Workload{
		Name: fmt.Sprintf("%s[lane %d]", w.Name, lane),
		Cfg:  w.Cfg, Prog: w.Prog,
		Tiles: w.Tiles, Rows: w.Rows, Cols: w.Cols,
		Load: func(m *array.Machine) error { return w.Load(lane, m) },
	}
}

// BatchReport aggregates a batched sweep: the batch-vs-golden
// differential outcome plus one full crash-sweep report per lane.
type BatchReport struct {
	Workload string `json:"workload"`
	Lanes    int    `json:"lanes"`
	// BatchMismatches holds per-lane divergences between the batched
	// fast path and that lane's golden continuous run (state or
	// accounting); empty on a correct engine.
	BatchMismatches []string `json:"batch_mismatches,omitempty"`
	// LaneReports[k] is lane k's exhaustive crash sweep over the scalar
	// path.
	LaneReports []*Report `json:"lane_reports"`
}

// AllEquivalent reports whether the batched path matched every lane's
// golden run and every lane's crash sweep was fully equivalent.
func (r *BatchReport) AllEquivalent() bool {
	if len(r.BatchMismatches) > 0 {
		return false
	}
	for _, lr := range r.LaneReports {
		if !lr.AllEquivalent() {
			return false
		}
	}
	return true
}

// MaxReplays is the worst per-outage replay count across all lanes.
func (r *BatchReport) MaxReplays() uint64 {
	var max uint64
	for _, lr := range r.LaneReports {
		if lr.MaxReplays > max {
			max = lr.MaxReplays
		}
	}
	return max
}

// Normalize zeroes run-environment fields in every lane report.
func (r *BatchReport) Normalize() {
	for _, lr := range r.LaneReports {
		lr.Normalize()
	}
}

// SweepBatch runs the two-obligation batched sweep: golden runs per
// lane, one bit-sliced replay of every loaded lane checked lane by lane
// against them, then an exhaustive per-lane crash sweep of the scalar
// path. Continuous-power accounting does not depend on the data, so
// every lane's golden Result must equal one pass priced on an unloaded
// machine — the pass workload.HotBatch.Price charges per lane.
func SweepBatch(w BatchWorkload, opts Options) (*BatchReport, error) {
	if w.Lanes < 1 || w.Lanes > array.MaxLanes {
		return nil, fmt.Errorf("fault: batch lanes %d outside [1, %d]", w.Lanes, array.MaxLanes)
	}
	rep := &BatchReport{Workload: w.Name, Lanes: w.Lanes}

	goldens := make([]*Golden, w.Lanes)
	for lane := range goldens {
		g, err := RunGolden(w.Lane(lane), LayerMachine)
		if err != nil {
			return nil, err
		}
		goldens[lane] = g
	}

	flat, err := array.Flatten(w.Prog, w.Cfg, w.Tiles, w.Rows, w.Cols)
	if err != nil {
		return nil, err
	}
	bm := array.NewBatchMachine(w.Tiles, w.Rows, w.Cols)
	for lane := 0; lane < w.Lanes; lane++ {
		m := array.NewMachine(w.Cfg, w.Tiles, w.Rows, w.Cols)
		if err := w.Load(lane, m); err != nil {
			return nil, fmt.Errorf("fault: loading lane %d: %w", lane, err)
		}
		if err := bm.LoadLane(lane, m); err != nil {
			return nil, err
		}
	}
	if err := bm.Replay(flat, w.Cols); err != nil {
		return nil, err
	}
	unloaded := array.NewMachine(w.Cfg, w.Tiles, w.Rows, w.Cols)
	pass, err := sim.NewMachineRunner(controller.New(controller.ProgramStore(w.Prog), unloaded)).Run(nil)
	if err != nil {
		return nil, err
	}
	m := array.NewMachine(w.Cfg, w.Tiles, w.Rows, w.Cols)
	for lane, g := range goldens {
		if err := bm.StoreLane(lane, m); err != nil {
			return nil, err
		}
		if d := g.snap.diffState(captureMachine(m)); d != "" {
			rep.BatchMismatches = append(rep.BatchMismatches,
				fmt.Sprintf("lane %d: batched state diverges from golden: %s", lane, d))
		}
		if g.Result != pass {
			rep.BatchMismatches = append(rep.BatchMismatches,
				fmt.Sprintf("lane %d: golden accounting %+v, unloaded pass %+v", lane, g.Result, pass))
		}
	}

	for lane := 0; lane < w.Lanes; lane++ {
		lr, err := Sweep(w.Lane(lane), LayerMachine, opts)
		if err != nil {
			return nil, err
		}
		rep.LaneReports = append(rep.LaneReports, lr)
	}
	return rep, nil
}

// TinySVMBatch maps the hand-built two-class SVM onto the batched
// engine with per-lane distinct binarized inputs (lane k feeds the
// 2-bit input k), compiled once and shared by the batched replay and
// every per-lane scalar controller.
func TinySVMBatch(cfg *mtj.Config) (BatchWorkload, error) {
	im := tinySVMModel()
	mp, err := svm.CompileMapping(im, svmRows, 1)
	if err != nil {
		return BatchWorkload{}, err
	}
	const lanes = 4
	return BatchWorkload{
		Name:  "tiny-svm-batch",
		Cfg:   cfg,
		Lanes: lanes,
		Prog:  mp.Prog,
		Tiles: 1, Rows: svmRows, Cols: arithCols,
		Load: func(lane int, m *array.Machine) error {
			input := []int{lane & 1, lane >> 1 & 1}
			for c := 0; c < mp.Columns; c++ {
				for j, rows := range mp.InputRows {
					for i, row := range rows {
						m.Tiles[0].SetBit(row, c, input[j]>>i&1)
					}
				}
			}
			return nil
		},
	}, nil
}
