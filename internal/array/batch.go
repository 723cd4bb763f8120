package array

import (
	"fmt"
	"slices"

	"mouse/internal/isa"
)

// Bit-sliced batching: the third axis of parallelism after the column
// broadcast (PR 3's packed engine) and the sweep pool. A BatchMachine
// stores, for every cell of the machine geometry, one uint64 whose bit k
// is lane k's copy of that cell — up to MaxLanes independent inferences
// sharing one instruction stream. Every datapath effect of the scalar
// Machine then becomes a word operation over lanes:
//
//   - a read/write moves whole lane words between a row and the buffer
//     (a rotated write rotates the words across columns; the lane bits
//     inside each word never move, because rotation permutes columns,
//     not samples);
//   - a preset stores the all-lanes constant 0 or ^0 into each active
//     column;
//   - a full-pulse logic op applies the gate's P-count threshold mask
//     (mtj.TruthTable.SwitchWord) to the lane words of the active
//     columns — the same formulas Tile.ExecLogicFull applies to its
//     column bit-planes, with lanes in place of columns.
//
// The replay loop executes a compile.FlatProgram, so validation, truth
// table lookup, and activation decoding all happened once at compile
// time; nothing in the loop allocates or can fail. For a column-local
// program (no rotated write) the loop also takes a live-column bound
// and touches only the columns a batch fills. Interrupted pulses
// have no word-parallel form (the partial resistor-network integration
// is per cell), so intermittent execution stays on the scalar
// Machine/MachineRunner path — the batch engine is the
// continuous-power fast path only, and tests hold it bit-for-bit to 64
// scalar runs.

// MaxLanes is the number of independent samples one BatchMachine
// advances per word operation — the width of the lane words.
const MaxLanes = 64

// FlatOp is one pre-resolved instruction of a FlatProgram
// (Flatten builds them). Field usage mirrors isa.Instruction,
// but every value is already in the form the batch executor consumes —
// validation, geometry checks, truth-table lookup, and activation
// decoding all happened at compile time.
type FlatOp struct {
	Kind isa.Kind

	// Memory fields (read/write): tile, row, and the rotation wrapped
	// to the machine width (Machine wraps narrow machines the same
	// way).
	Tile int
	Row  int
	Rot  int

	// Logic fields: input/output rows, arity, and the truth table's
	// threshold dispatch — the output switches in a column when at
	// least MinP of its NIn inputs are P, toward AP when ToAP (see
	// mtj.TruthTable.SwitchWord).
	In   [3]int
	Out  int
	NIn  int
	MinP int
	ToAP bool

	// Preset field: true writes AP (logic 1).
	AP bool

	// Activation fields: the resolved column set — deduplicated,
	// filtered to the machine width exactly like Tile.SetActive, and in
	// ascending order, so the columns below a live bound are a prefix.
	Broadcast bool
	Cols      []uint16
}

// FlatProgram is a program compiled for one machine geometry and one
// electrical configuration. It is immutable after compilation and safe
// to replay from concurrent machines.
type FlatProgram struct {
	Ops []FlatOp

	// Tiles, Rows, Cols is the data-tile geometry the program was
	// resolved against; Replay refuses a machine of any other shape.
	Tiles, Rows, Cols int

	// ColumnLocal reports that no write rotates (every wrapped Rot is
	// 0). Reads, unrotated writes, presets and logic then act on each
	// column independently and the activation latch is a set, so the
	// state of column c never depends on a column other than c: Replay
	// can skip every column at or above its live bound.
	ColumnLocal bool
}

// BatchTile is the lane-sliced image of one Tile: lane words in
// row-major cell order, plus the shared (lane-independent) volatile
// column-activation latch.
type BatchTile struct {
	rows, cols int

	// lanes[r*cols+c] holds cell (r, c) across all lanes; bit k is lane
	// k's value, 1 = AP = logic 1.
	lanes []uint64

	// active lists the active columns. It aliases the compiled
	// program's column set (immutable) — replacement semantics, exactly
	// like Tile.SetActive.
	active []uint16
}

func newBatchTile(rows, cols int) *BatchTile {
	return &BatchTile{rows: rows, cols: cols, lanes: make([]uint64, rows*cols)}
}

// Rows returns the number of rows in the tile.
func (t *BatchTile) Rows() int { return t.rows }

// Cols returns the number of columns in the tile.
func (t *BatchTile) Cols() int { return t.cols }

// rowWords returns row r's lane words, one per column.
func (t *BatchTile) rowWords(r int) []uint64 {
	return t.lanes[r*t.cols : (r+1)*t.cols]
}

func (t *BatchTile) checkCell(row, col int) {
	if row < 0 || row >= t.rows || col < 0 || col >= t.cols {
		panic(fmt.Sprintf("array: cell (%d, %d) outside %dx%d batch tile", row, col, t.rows, t.cols))
	}
}

// CellLanes returns the lane word of cell (row, col).
func (t *BatchTile) CellLanes(row, col int) uint64 {
	t.checkCell(row, col)
	return t.lanes[row*t.cols+col]
}

// SetCellLanes stores a full lane word into cell (row, col) — the bulk
// loading primitive: one call initializes a cell for all lanes at once.
func (t *BatchTile) SetCellLanes(row, col int, w uint64) {
	t.checkCell(row, col)
	t.lanes[row*t.cols+col] = w
}

// ActiveColumns returns the indices of currently active columns.
func (t *BatchTile) ActiveColumns() []uint16 { return t.active }

// BatchMachine is the lane-sliced image of a Machine: every tile a
// BatchTile, and the memory buffer one lane word per column.
type BatchMachine struct {
	Tiles []*BatchTile

	// Buffer is the non-volatile memory buffer, lane-sliced: Buffer[c]
	// holds bit c of every lane's buffer.
	Buffer []uint64

	rows, cols int
}

// NewBatchMachine creates the lane-sliced image of an
// nTiles×rows×cols machine, every cell P (0) in every lane.
func NewBatchMachine(nTiles, rows, cols int) *BatchMachine {
	if nTiles <= 0 || nTiles > isa.BroadcastTile {
		panic(fmt.Sprintf("array: bad tile count %d", nTiles))
	}
	if rows <= 0 || cols <= 0 || rows > isa.Rows || cols > isa.Cols {
		panic(fmt.Sprintf("array: bad tile geometry %dx%d", rows, cols))
	}
	m := &BatchMachine{Buffer: make([]uint64, cols), rows: rows, cols: cols}
	for i := 0; i < nTiles; i++ {
		m.Tiles = append(m.Tiles, newBatchTile(rows, cols))
	}
	return m
}

// Rows returns the per-tile row count.
func (m *BatchMachine) Rows() int { return m.rows }

// Cols returns the per-tile column count.
func (m *BatchMachine) Cols() int { return m.cols }

// Reset returns the machine to its post-construction state: all cells P
// in every lane, buffer cleared, no columns active. Steady-state batch
// loops do not need it — compiled workloads preset every derived row
// before use and the loader overwrites every input row — but it gives
// tests and reused arenas a clean origin.
func (m *BatchMachine) Reset() {
	for _, t := range m.Tiles {
		for i := range t.lanes {
			t.lanes[i] = 0
		}
		t.active = nil
	}
	for i := range m.Buffer {
		m.Buffer[i] = 0
	}
}

// LaneBit returns lane's logic value at (tile, row, col).
func (m *BatchMachine) LaneBit(lane, tile, row, col int) int {
	m.checkLane(lane)
	return int(m.Tiles[tile].CellLanes(row, col) >> lane & 1)
}

// SetLaneBit stores a logic value at (tile, row, col) in one lane.
func (m *BatchMachine) SetLaneBit(lane, tile, row, col, bit int) {
	m.checkLane(lane)
	t := m.Tiles[tile]
	t.checkCell(row, col)
	w := &t.lanes[row*t.cols+col]
	if bit != 0 {
		*w |= 1 << lane
	} else {
		*w &^= 1 << lane
	}
}

func (m *BatchMachine) checkLane(lane int) {
	if lane < 0 || lane >= MaxLanes {
		panic(fmt.Sprintf("array: lane %d out of range [0, %d)", lane, MaxLanes))
	}
}

func (m *BatchMachine) checkGeometry(tiles, rows, cols int) error {
	if len(m.Tiles) != tiles || m.rows != rows || m.cols != cols {
		return fmt.Errorf("array: batch machine is %dx%dx%d, want %dx%dx%d",
			len(m.Tiles), m.rows, m.cols, tiles, rows, cols)
	}
	return nil
}

// LoadLane packs one scalar machine's full non-volatile state — cells
// and memory buffer — into one lane. The machine must match the batch
// geometry. Volatile activation latches are not loaded: they are shared
// across lanes and owned by the replayed program's ACT instructions.
func (m *BatchMachine) LoadLane(lane int, src *Machine) error {
	m.checkLane(lane)
	if err := m.checkGeometry(len(src.Tiles), src.Tiles[0].Rows(), src.Tiles[0].Cols()); err != nil {
		return err
	}
	bit := uint64(1) << lane
	for ti, st := range src.Tiles {
		dt := m.Tiles[ti]
		for r := 0; r < m.rows; r++ {
			words := st.rowWords(r)
			out := dt.rowWords(r)
			for c := 0; c < m.cols; c++ {
				if words[c/wordBits]>>(c%wordBits)&1 == 1 {
					out[c] |= bit
				} else {
					out[c] &^= bit
				}
			}
		}
	}
	for c := 0; c < m.cols; c++ {
		if src.Buffer[c/8]>>(c%8)&1 == 1 {
			m.Buffer[c] |= bit
		} else {
			m.Buffer[c] &^= bit
		}
	}
	return nil
}

// StoreLane unpacks one lane into a scalar machine: cells, memory
// buffer, and the shared activation configuration (so the result is a
// faithful continuation point, not just a snapshot). The machine must
// match the batch geometry.
func (m *BatchMachine) StoreLane(lane int, dst *Machine) error {
	m.checkLane(lane)
	if err := m.checkGeometry(len(dst.Tiles), dst.Tiles[0].Rows(), dst.Tiles[0].Cols()); err != nil {
		return err
	}
	for ti, dt := range dst.Tiles {
		st := m.Tiles[ti]
		for r := 0; r < m.rows; r++ {
			words := st.rowWords(r)
			out := dt.rowWords(r)
			for i := range out {
				out[i] = 0
			}
			for c := 0; c < m.cols; c++ {
				if words[c]>>lane&1 == 1 {
					out[c/wordBits] |= 1 << (c % wordBits)
				}
			}
		}
		dt.SetActive(st.active)
	}
	m.BufferLane(lane, dst.Buffer)
	return nil
}

// BufferLane unpacks one lane's memory buffer into dst, the same layout
// ReadRow produces (bit c of the lane buffer is bit c%8 of dst[c/8]).
// dst must hold at least (cols+7)/8 bytes.
func (m *BatchMachine) BufferLane(lane int, dst []byte) {
	m.checkLane(lane)
	if len(dst)*8 < m.cols {
		panic(fmt.Sprintf("array: buffer too small (%d bytes for %d columns)", len(dst), m.cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < m.cols; c++ {
		if m.Buffer[c]>>lane&1 == 1 {
			dst[c/8] |= 1 << (c % 8)
		}
	}
}

// Replay executes a compiled program once over all lanes. The program
// must have been flattened for this machine's exact geometry; that is
// the only runtime check — per-instruction validation happened in
// Flatten, so the loop below is branch-lean, cannot fail, and
// performs no allocation.
//
// live bounds the columns a column-local program touches: columns
// below live end exactly as a full replay leaves them (cells, buffer,
// activation), and columns at or above it keep the cells and buffer
// they held and are never latched active. A batch that fills only its
// first live columns therefore pays for live columns per op, not Cols.
// A program that is not column-local ignores the bound and replays
// every column; callers that need the whole machine pass Cols.
func (m *BatchMachine) Replay(fp *FlatProgram, live int) error {
	if err := m.checkGeometry(fp.Tiles, fp.Rows, fp.Cols); err != nil {
		return err
	}
	cols := m.cols
	if live < 1 || live > cols {
		return fmt.Errorf("array: live column bound %d out of range [1, %d]", live, cols)
	}
	if !fp.ColumnLocal {
		live = cols
	}
	for i := range fp.Ops {
		op := &fp.Ops[i]
		switch op.Kind {
		case isa.KindRead:
			copy(m.Buffer[:live], m.Tiles[op.Tile].rowWords(op.Row))
		case isa.KindWrite:
			// Destination column c receives buffer word (c-rot) mod cols —
			// the lane-sliced image of WriteRowRot's left rotation. Lane
			// bits are untouched: rotation permutes columns, not samples.
			// live < cols implies rot 0, where the second copy is empty.
			dst := m.Tiles[op.Tile].rowWords(op.Row)
			copy(dst[op.Rot:live], m.Buffer[:live-op.Rot])
			copy(dst[:op.Rot], m.Buffer[cols-op.Rot:])
		case isa.KindPreset:
			var w uint64
			if op.AP {
				w = ^uint64(0)
			}
			for _, t := range m.Tiles {
				row := t.rowWords(op.Row)
				for _, c := range t.active {
					row[c] = w
				}
			}
		case isa.KindLogic:
			for _, t := range m.Tiles {
				t.execLogic(op)
			}
		case isa.KindAct:
			// Latch the prefix of the ascending column set below live;
			// preset and logic then iterate only live columns.
			n, _ := slices.BinarySearch(op.Cols, uint16(live))
			active := op.Cols[:n]
			if op.Broadcast {
				for _, t := range m.Tiles {
					t.active = active
				}
			} else {
				for ti, t := range m.Tiles {
					if ti == op.Tile {
						t.active = active
					} else {
						t.active = nil
					}
				}
			}
		}
	}
	return nil
}

// execLogic applies one full-pulse gate to the lane words of the active
// columns — mtj.TruthTable.SwitchWord's threshold masks, pre-dispatched
// by Flatten into (NIn, MinP, ToAP).
func (t *BatchTile) execLogic(op *FlatOp) {
	if len(t.active) == 0 {
		return
	}
	out := t.rowWords(op.Out)
	switch m := op.MinP; {
	case m > op.NIn:
		return
	case m <= 0:
		// Every lane of every active column switches to the target state.
		var w uint64
		if op.ToAP {
			w = ^uint64(0)
		}
		for _, c := range t.active {
			out[c] = w
		}
		return
	}
	in0 := t.rowWords(op.In[0])
	var in1, in2 []uint64
	if op.NIn >= 2 {
		in1 = t.rowWords(op.In[1])
	}
	if op.NIn >= 3 {
		in2 = t.rowWords(op.In[2])
	}
	for _, c := range t.active {
		var sw uint64
		switch op.NIn {
		case 1:
			sw = ^in0[c]
		case 2:
			pa, pb := ^in0[c], ^in1[c]
			if op.MinP == 1 {
				sw = pa | pb
			} else {
				sw = pa & pb
			}
		default:
			pa, pb, pc := ^in0[c], ^in1[c], ^in2[c]
			switch op.MinP {
			case 1:
				sw = pa | pb | pc
			case 2:
				sw = pa&(pb|pc) | pb&pc
			default:
				sw = pa & pb & pc
			}
		}
		if op.ToAP {
			out[c] |= sw
		} else {
			out[c] &^= sw
		}
	}
}
