package array

import (
	"fmt"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Flatten turns an isa.Program into the flat op array a BatchMachine
// replays: every per-instruction decision is hoisted out of the replay
// loop — instructions validated, rows checked against the concrete
// machine geometry, write rotations wrapped at the tile width, and each
// gate checked via mtj.Table and resolved to its switch function (an
// opCode) and its target-state mask. Activation lists are expanded,
// width-filtered and stored as sorted, coalesced column runs.
//
// Flatten emits one op per instruction, except that a preset directly
// followed by a gate writing the same row is fused into that gate: the
// gate's base becomes the preset value instead of the row's old word,
// so Replay writes preset-then-gate in one pass. This is exact because
// isa.Instruction.Validate requires a gate's inputs to have the
// opposite row parity from its output, so no gate reads the row just
// preset, and both ops act on the same latched columns of every tile.
// A fused gate whose preset already is its target writes that value
// whatever its inputs, so it becomes a preset. Any other preset stays a
// preset.
//
// Flatten also records whether the program is column-local
// (FlatProgram.ColumnLocal), which lets Replay bound a sparse batch to
// the columns it fills. It performs, once, every validation the scalar
// execution path performs per instruction; Replay then touches none of
// those paths again. Program producers (the SVM and BNN batch engines)
// call it once per program and replay per batch.
func Flatten(p isa.Program, cfg *mtj.Config, nTiles, rows, cols int) (*FlatProgram, error) {
	if nTiles <= 0 || nTiles > isa.BroadcastTile {
		return nil, fmt.Errorf("array: bad tile count %d", nTiles)
	}
	if rows <= 0 || cols <= 0 || rows > isa.Rows || cols > isa.Cols {
		return nil, fmt.Errorf("array: bad tile geometry %dx%d", rows, cols)
	}
	fp := &FlatProgram{Ops: make([]FlatOp, 0, len(p)), Tiles: nTiles, Rows: rows, Cols: cols, ColumnLocal: true}
	checkRow := func(i int, row uint16) error {
		if int(row) >= rows {
			return fmt.Errorf("array: instruction %d: row %d out of range [0, %d)", i, row, rows)
		}
		return nil
	}
	for i := range p {
		in := &p[i]
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("array: instruction %d: %w", i, err)
		}
		var op FlatOp
		switch in.Kind {
		case isa.KindRead, isa.KindWrite:
			if int(in.Tile) >= nTiles {
				return nil, fmt.Errorf("array: instruction %d: tile %d out of range [0, %d)", i, in.Tile, nTiles)
			}
			if err := checkRow(i, in.Row); err != nil {
				return nil, err
			}
			op.code, op.tile, op.row = opWrite, in.Tile, in.Row
			if in.Kind == isa.KindRead {
				op.code = opRead
			}
			// Narrow machines wrap the rotation at their actual width,
			// matching Machine's write path.
			op.rot = uint16(int(in.Rot) % cols)
			if op.rot != 0 {
				fp.ColumnLocal = false
			}
		case isa.KindPreset:
			if err := checkRow(i, in.Row); err != nil {
				return nil, err
			}
			op = presetOp(in.Row, laneWord(in.Value == mtj.AP))
		case isa.KindLogic:
			tbl, err := mtj.Table(in.Gate, cfg)
			if err != nil {
				return nil, fmt.Errorf("array: instruction %d: %w", i, err)
			}
			if err := checkRow(i, in.Out); err != nil {
				return nil, err
			}
			for j := 0; j < tbl.Inputs; j++ {
				if err := checkRow(i, in.In[j]); err != nil {
					return nil, err
				}
				op.in[j] = in.In[j]
			}
			op.row = in.Out
			op.code = opGate + opCode(mtj.Spec(in.Gate).Fn)
			op.mix.target = laneWord(tbl.Target == mtj.AP)
			// Fuse the preset just emitted for this row: its value
			// becomes the gate's base.
			var base uint64
			fused := false
			if n := len(fp.Ops); n > 0 && fp.Ops[n-1].code == opPreset && fp.Ops[n-1].row == op.row {
				base, fused = fp.Ops[n-1].mix.target, true
				fp.Ops = fp.Ops[:n-1]
			}
			switch {
			case fused && base == op.mix.target:
				op = presetOp(op.row, op.mix.target)
			case fused:
				op.mix.fused = ^uint64(0)
			}
		case isa.KindAct:
			if !in.Broadcast {
				if int(in.Tile) >= nTiles {
					return nil, fmt.Errorf("array: instruction %d: tile %d is not a data tile", i, in.Tile)
				}
				op.tile = in.Tile
			}
			op.code, op.broadcast = opAct, in.Broadcast
			op.runs = colRuns(in.ActiveColumns(), cols)
		default:
			return nil, fmt.Errorf("array: instruction %d: unknown kind %d", i, uint8(in.Kind))
		}
		fp.Ops = append(fp.Ops, op)
	}
	return fp, nil
}

// presetOp is the op writing lane word w (0 or ^0) into row.
func presetOp(row uint16, w uint64) FlatOp {
	return FlatOp{code: opPreset, row: row, mix: mix{target: w}}
}

// laneWord is the all-lanes word of one logic value.
func laneWord(ap bool) uint64 {
	if ap {
		return ^uint64(0)
	}
	return 0
}

// colRuns returns the columns below width as sorted, coalesced [lo, hi)
// runs. Columns beyond the machine width are dropped, exactly as the
// decoder (Tile.SetActive) ignores them; the latch is a set, so order
// and duplicates select nothing, and sorted runs let Replay latch the
// columns below its live bound as a prefix.
func colRuns(active []uint16, width int) []colRun {
	on := make([]bool, width)
	for _, c := range active {
		if int(c) < width {
			on[c] = true
		}
	}
	var runs []colRun
	for c := 0; c < width; c++ {
		if !on[c] {
			continue
		}
		lo := c
		for c < width && on[c] {
			c++
		}
		runs = append(runs, colRun{uint16(lo), uint16(c)})
	}
	return runs
}
