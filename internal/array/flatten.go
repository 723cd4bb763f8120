package array

import (
	"fmt"
	"slices"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Flatten turns an isa.Program into the flat op array a BatchMachine
// replays: every per-instruction decision is hoisted out of the replay
// loop — instructions validated, rows checked against the concrete
// machine geometry, write rotations wrapped at the tile width,
// activation lists expanded/deduplicated/width-filtered/sorted, and
// each gate's resistor-network truth table resolved to its
// (MinSwitchP, target-state) threshold via mtj.Table. It also records
// whether the program is column-local (FlatProgram.ColumnLocal), which
// lets Replay bound a sparse batch to the columns it fills. It
// performs, once, every validation the scalar execution path performs
// per instruction; Replay then touches none of those paths again.
// Program producers (the SVM and BNN batch engines) call it once per
// program and replay per batch.
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
		op := FlatOp{Kind: in.Kind}
		switch in.Kind {
		case isa.KindRead, isa.KindWrite:
			if int(in.Tile) >= nTiles {
				return nil, fmt.Errorf("array: instruction %d: tile %d out of range [0, %d)", i, in.Tile, nTiles)
			}
			if err := checkRow(i, in.Row); err != nil {
				return nil, err
			}
			op.Tile, op.Row = int(in.Tile), int(in.Row)
			// Narrow machines wrap the rotation at their actual width,
			// matching Machine's write path.
			op.Rot = int(in.Rot) % cols
			if op.Rot != 0 {
				fp.ColumnLocal = false
			}
		case isa.KindPreset:
			if err := checkRow(i, in.Row); err != nil {
				return nil, err
			}
			op.Row = int(in.Row)
			op.AP = in.Value == mtj.AP
		case isa.KindLogic:
			tbl, err := mtj.Table(in.Gate, cfg)
			if err != nil {
				return nil, fmt.Errorf("array: instruction %d: %w", i, err)
			}
			if err := checkRow(i, in.Out); err != nil {
				return nil, err
			}
			op.NIn = tbl.Inputs
			for j := 0; j < op.NIn; j++ {
				if err := checkRow(i, in.In[j]); err != nil {
					return nil, err
				}
				op.In[j] = int(in.In[j])
			}
			op.Out = int(in.Out)
			op.MinP = tbl.MinSwitchP
			op.ToAP = tbl.Target == mtj.AP
		case isa.KindAct:
			if !in.Broadcast {
				if int(in.Tile) >= nTiles {
					return nil, fmt.Errorf("array: instruction %d: tile %d is not a data tile", i, in.Tile)
				}
				op.Tile = int(in.Tile)
			}
			op.Broadcast = in.Broadcast
			// Columns beyond the machine width are dropped here, exactly
			// as the decoder (Tile.SetActive) ignores them. The latch is a
			// set, so sorting changes nothing it selects; it lets Replay
			// latch the columns below its live bound as a prefix.
			for _, c := range in.ActiveColumns() {
				if int(c) < cols {
					op.Cols = append(op.Cols, c)
				}
			}
			slices.Sort(op.Cols)
		default:
			return nil, fmt.Errorf("array: instruction %d: unknown kind %d", i, uint8(in.Kind))
		}
		fp.Ops = append(fp.Ops, op)
	}
	return fp, nil
}
