package svm

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/mtj"
)

// BatchEngine classifies up to array.MaxLanes input vectors per replay
// of the SV-parallel program: the mapping already computes every class
// score across columns in one pass, and the engine adds the third axis
// — each lane word bit is one independent sample, so the model-data
// presets, kernel arithmetic, and reduction tree are all amortized 64
// ways. The program is flattened once at construction and the arena is
// reused across batches, so the steady-state classify loop performs no
// allocation and no per-instruction validation.
//
// The batched path is the continuous-power fast path only; energy
// accounting is one MachineRunner pass per lane
// (workload.HotBatch.Price), and intermittent execution goes through
// the scalar controller path, which this engine leaves untouched.
type BatchEngine struct {
	m     *ParallelMapping
	flat  *array.FlatProgram
	arena *array.BatchMachine

	// scratch buffers for alloc-free extraction.
	scores []int64
	bits   []int
}

// NewBatchEngine compiles the mapping's program for bit-sliced replay on
// a rows-tall machine (the same geometry NewMachine allocates).
func (m *ParallelMapping) NewBatchEngine(cfg *mtj.Config, rows int) (*BatchEngine, error) {
	flat, err := array.Flatten(m.Prog, cfg, 1, rows, m.Columns)
	if err != nil {
		return nil, err
	}
	return &BatchEngine{
		m:      m,
		flat:   flat,
		arena:  array.NewBatchMachine(1, rows, m.Columns),
		scores: make([]int64, m.Columns/m.K),
		bits:   make([]int, len(m.ScoreRows)),
	}, nil
}

// Lanes returns the batch capacity.
func (e *BatchEngine) Lanes() int { return array.MaxLanes }

// LoadInputs packs the samples into the input rows, sample i in lane i,
// the same bits in every column (the lane-sliced image of LoadInput).
// Every sample is validated before any row is written, so a rejected
// batch leaves the arena as it was.
func (e *BatchEngine) LoadInputs(samples [][]int) error {
	if len(samples) == 0 || len(samples) > array.MaxLanes {
		return fmt.Errorf("svm: batch of %d samples out of range [1, %d]", len(samples), array.MaxLanes)
	}
	for lane, x := range samples {
		if len(x) != len(e.m.InputRows) {
			return fmt.Errorf("svm: sample %d has %d features, mapping expects %d", lane, len(x), len(e.m.InputRows))
		}
	}
	t := e.arena.Tiles[0]
	for j, rows := range e.m.InputRows {
		for bi, row := range rows {
			var w uint64
			for lane, x := range samples {
				w |= uint64(x[j]>>bi&1) << lane
			}
			t.FillRowLanes(row, w)
		}
	}
	return nil
}

// ScoresBatch runs one batched inference pass and returns every class
// score per sample: out[i][c] is sample i's class-c score.
func (e *BatchEngine) ScoresBatch(samples [][]int) ([][]int64, error) {
	if err := e.run(samples); err != nil {
		return nil, err
	}
	out := make([][]int64, len(samples))
	for lane := range out {
		e.laneScores(lane)
		out[lane] = append([]int64(nil), e.scores...)
	}
	return out, nil
}

// ClassifyBatch runs one batched inference pass and returns the
// predicted class per sample.
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
		return fmt.Errorf("svm: destination holds %d results, batch has %d", len(dst), len(samples))
	}
	if err := e.run(samples); err != nil {
		return err
	}
	t := e.arena.Tiles[0]
	for lane := range samples {
		if e.m.ArgmaxRows != nil {
			// In-array argmax: the tournament left the winner index in
			// column 0.
			idx := 0
			for i, row := range e.m.ArgmaxRows {
				idx |= int(t.CellLanes(row, 0)>>lane&1) << i
			}
			dst[lane] = idx
			continue
		}
		e.laneScores(lane)
		best := 0
		for c, s := range e.scores {
			if s > e.scores[best] {
				best = c
			}
		}
		dst[lane] = best
	}
	return nil
}

// run loads the batch and replays the compiled program. No Reset: the
// loader overwrites every input row, and the program presets all model
// data and derived rows before reading them, so a dirty arena replays to
// the same state a fresh machine reaches.
func (e *BatchEngine) run(samples [][]int) error {
	if err := e.LoadInputs(samples); err != nil {
		return err
	}
	return e.arena.Replay(e.flat, e.arena.Cols())
}

// laneScores reads one lane's class scores into the scratch slice, the
// lane-sliced image of Scores' read-out loop.
func (e *BatchEngine) laneScores(lane int) {
	t := e.arena.Tiles[0]
	for class := range e.scores {
		for i, row := range e.m.ScoreRows {
			e.bits[i] = int(t.CellLanes(row, e.m.ClassColumn(class)) >> lane & 1)
		}
		e.scores[class] = e.m.ReadScore(e.bits)
	}
}
