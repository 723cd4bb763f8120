package bnn

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/mtj"
)

// BatchEngine multiplies the mapping's column batch by the lane axis:
// the compiled program already classifies Columns samples per pass (one
// per column), and the bit-sliced arena runs array.MaxLanes independent
// copies of that pass per replay — capacity Columns×64 samples.
// Placement is lane-major: sample s sits in lane s%64 of column s/64, so
// a batch of n samples fills the first ceil(n/64) columns. The mapping
// never moves data across columns, so its program is column-local
// (array.FlatProgram.ColumnLocal) and the replay touches only the
// filled columns: an 8-sample batch replays one column, not Columns.
// The program is flattened once and the arena reused, so the
// steady-state classify loop performs no allocation and no
// per-instruction validation.
//
// Like the SVM batch engine this is the continuous-power fast path
// only; energy accounting is one MachineRunner pass per column batch
// (workload.HotBatch.Price), and intermittent execution goes through
// the scalar controller path.
type BatchEngine struct {
	m    *Mapping
	net  *Network
	flat *array.FlatProgram

	arena *array.BatchMachine
	bits  []int
}

// NewBatchEngine compiles the mapping's program for bit-sliced replay
// on a rows-tall machine (the geometry NewMachine allocates).
func (m *Mapping) NewBatchEngine(cfg *mtj.Config, rows int, net *Network) (*BatchEngine, error) {
	flat, err := array.Flatten(m.Prog, cfg, 1, rows, m.Columns)
	if err != nil {
		return nil, err
	}
	maxPop := 0
	for _, rows := range m.PopRows {
		if len(rows) > maxPop {
			maxPop = len(rows)
		}
	}
	return &BatchEngine{
		m:     m,
		net:   net,
		flat:  flat,
		arena: array.NewBatchMachine(1, rows, m.Columns),
		bits:  make([]int, maxPop),
	}, nil
}

// Capacity returns the number of samples one replay classifies.
func (e *BatchEngine) Capacity() int { return e.m.Columns * array.MaxLanes }

// place maps sample s to its (lane, column) slot.
func place(s int) (lane, col int) { return s % array.MaxLanes, s / array.MaxLanes }

// liveColumns returns the columns a batch of n samples fills.
func liveColumns(n int) int { return (n + array.MaxLanes - 1) / array.MaxLanes }

// LoadInputs packs the samples into their (lane, column) slots — the
// lane-sliced image of Mapping.LoadInputs. Only the filled columns are
// written; the replay never reads the others.
func (e *BatchEngine) LoadInputs(samples [][]int) error {
	if len(samples) == 0 || len(samples) > e.Capacity() {
		return fmt.Errorf("bnn: batch of %d samples out of range [1, %d]", len(samples), e.Capacity())
	}
	t := e.arena.Tiles[0]
	load := func(featureRows func(i int) []int, nFeatures int) error {
		for s, x := range samples {
			if len(x) != nFeatures {
				return fmt.Errorf("bnn: sample %d has %d features, mapping expects %d", s, len(x), nFeatures)
			}
		}
		// One lane word per (cell, column): column col's word collects
		// the 64 contiguous samples from col·64, lane k holding sample
		// col·64+k.
		live := liveColumns(len(samples))
		for i := 0; i < nFeatures; i++ {
			rows := featureRows(i)
			for bi, row := range rows {
				for col := 0; col < live; col++ {
					lanes := samples[col*array.MaxLanes : min((col+1)*array.MaxLanes, len(samples))]
					var w uint64
					for lane, x := range lanes {
						w |= uint64(x[i]>>bi&1) << lane
					}
					t.SetCellLanes(row, col, w)
				}
			}
		}
		return nil
	}
	if e.net.Cfg.InputBits == 1 {
		return load(func(i int) []int { return e.m.InputRows[i : i+1] }, len(e.m.InputRows))
	}
	return load(func(i int) []int { return e.m.InputWordRows[i] }, len(e.m.InputWordRows))
}

// ClassifyBatch runs one replay and returns the predicted class per
// sample.
func (e *BatchEngine) ClassifyBatch(samples [][]int) ([]int, error) {
	dst := make([]int, len(samples))
	if err := e.ClassifyBatchInto(dst, samples); err != nil {
		return nil, err
	}
	return dst, nil
}

// ClassifyBatchInto classifies into a caller-owned slice — the
// alloc-free steady-state entry point. dst must hold len(samples)
// elements.
func (e *BatchEngine) ClassifyBatchInto(dst []int, samples [][]int) error {
	if len(dst) < len(samples) {
		return fmt.Errorf("bnn: destination holds %d results, batch has %d", len(dst), len(samples))
	}
	if err := e.LoadInputs(samples); err != nil {
		return err
	}
	if err := e.arena.Replay(e.flat, liveColumns(len(samples))); err != nil {
		return err
	}
	t := e.arena.Tiles[0]
	for s := range samples {
		lane, col := place(s)
		best, bestScore := 0, 0
		for class, rows := range e.m.PopRows {
			bits := e.bits[:len(rows)]
			for i, row := range rows {
				bits[i] = int(t.CellLanes(row, col) >> lane & 1)
			}
			score := e.net.ScoreFromPop(class, e.m.PopFromBits(bits))
			if class == 0 || score > bestScore {
				best, bestScore = class, score
			}
		}
		dst[s] = best
	}
	return nil
}
