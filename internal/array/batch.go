package array

import (
	"fmt"
	"slices"

	"mouse/internal/isa"
	"mouse/internal/mtj"
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
//   - a full-pulse logic op applies the gate's switch function
//     (mtj.SwitchFn.Word) to the lane words of the active columns — the
//     same function Tile.ExecLogicFull applies to its column bit-planes,
//     with lanes in place of columns.
//
// The replay loop executes a FlatProgram, so validation, truth table
// lookup, and activation decoding all happened once at compile time;
// nothing in the loop allocates or can fail. Flatten also shapes the
// ops for the loop: a preset directly followed by a gate on the same row
// is fused into that gate (one pass writes preset-then-gate), each gate
// carries one of six switch functions with its masks resolved, and an
// activation latch is a list of column runs, so presets and gates
// iterate contiguous subslices with no per-column dispatch. For a
// column-local program (no rotated write) the loop also takes a
// live-column bound and touches only the columns a batch fills.
// Interrupted pulses have no word-parallel form (the partial
// resistor-network integration is per cell), so intermittent execution
// stays on the scalar Machine/MachineRunner path — the batch engine is
// the continuous-power fast path only, and tests hold it bit-for-bit to
// 64 scalar runs.

// MaxLanes is the number of independent samples one BatchMachine
// advances per word operation — the width of the lane words.
const MaxLanes = 64

// FlatOp is one pre-resolved op of a FlatProgram (Flatten builds them).
// Validation, geometry checks, truth-table lookup, preset fusion and
// activation decoding all happened at compile time; the fields hold
// only what Replay consumes.
type FlatOp struct {
	code opCode

	// broadcast marks an ACT that latches every tile.
	broadcast bool

	// tile addresses a read, write or per-tile ACT. row is the row a
	// read, write or preset moves, or a gate's output row. rot is a
	// write's rotation, wrapped to the machine width (Machine wraps
	// narrow machines the same way). in holds a gate's input rows;
	// unused inputs stay row 0 and are never read.
	tile, row, rot uint16
	in             [3]uint16

	// mix combines a gate's switch word with its output row; a preset
	// writes mix.target.
	mix mix

	// runs is an ACT's column set as sorted, disjoint, non-adjacent
	// [lo, hi) runs, filtered to the machine width exactly like
	// Tile.SetActive.
	runs []colRun
}

// opCode selects what Replay does for an op. A logic op's code is
// opGate plus its gate's switch function (mtj.SwitchFn), so Replay
// dispatches each gate straight to that function's kernel.
type opCode uint8

const (
	opRead opCode = iota
	opWrite
	opPreset
	opAct
	opGate
)

const (
	opNot  = opGate + opCode(mtj.FnNot)
	opOr2  = opGate + opCode(mtj.FnOr2)
	opAnd2 = opGate + opCode(mtj.FnAnd2)
	opOr3  = opGate + opCode(mtj.FnOr3)
	opMaj3 = opGate + opCode(mtj.FnMaj3)
	opAnd3 = opGate + opCode(mtj.FnAnd3)
)

// mix writes a gate's result into its output word: the columns the
// gate switches take the target state (^0 = AP), and the rest keep the
// word the output held or, for a gate with a fused preset (fused ^0),
// the preset value. Flatten keeps a fused gate only when that value is
// the opposite state, ^target (otherwise the pair is a preset). A
// preset op writes target.
type mix struct{ target, fused uint64 }

func (m mix) apply(out, sw uint64) uint64 {
	return m.target ^ (out^m.target|m.fused)&^sw
}

// colRun is the half-open column interval [lo, hi).
type colRun struct{ lo, hi uint16 }

// FlatProgram is a program compiled for one machine geometry and one
// electrical configuration. It is immutable after compilation and safe
// to replay from concurrent machines.
type FlatProgram struct {
	Ops []FlatOp

	// Tiles, Rows, Cols is the data-tile geometry the program was
	// resolved against; Replay refuses a machine of any other shape.
	Tiles, Rows, Cols int

	// ColumnLocal reports that no write rotates (every wrapped
	// rotation is 0). Reads, unrotated writes, presets and logic then act on each
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

	// active holds the active column runs that start below end; end
	// clips the last of them (Replay's live bound). active aliases the
	// compiled program's runs (immutable) — replacement semantics,
	// exactly like Tile.SetActive.
	active []colRun
	end    int
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

// FillRowLanes stores lane word w into every column of row — the bulk
// loader for a row that holds the same bits in every column.
func (t *BatchTile) FillRowLanes(row int, w uint64) {
	t.checkCell(row, 0)
	fill(t.rowWords(row), w)
}

// ActiveColumns returns the indices of currently active columns in
// ascending order, expanded from the latched runs.
func (t *BatchTile) ActiveColumns() []uint16 {
	var cols []uint16
	for _, r := range t.active {
		for c := int(r.lo); c < min(int(r.hi), t.end); c++ {
			cols = append(cols, uint16(c))
		}
	}
	return cols
}

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
		t.active, t.end = nil, 0
	}
	for i := range m.Buffer {
		m.Buffer[i] = 0
	}
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
		dt.SetActive(st.ActiveColumns())
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
		switch op.code {
		case opRead:
			copy(m.Buffer[:live], m.Tiles[op.tile].rowWords(int(op.row)))
		case opWrite:
			// Destination column c receives buffer word (c-rot) mod cols —
			// the lane-sliced image of WriteRowRot's left rotation. Lane
			// bits are untouched: rotation permutes columns, not samples.
			// live < cols implies rot 0, where the second copy is empty.
			rot := int(op.rot)
			dst := m.Tiles[op.tile].rowWords(int(op.row))
			copy(dst[rot:live], m.Buffer[:live-rot])
			copy(dst[:rot], m.Buffer[cols-rot:])
		case opPreset:
			for _, t := range m.Tiles {
				row := t.rowWords(int(op.row))
				for _, r := range t.active {
					fill(row[r.lo:min(int(r.hi), t.end)], op.mix.target)
				}
			}
		case opAct:
			// Latch the runs that start below live; presets and gates
			// clip the last of them at live.
			n, _ := slices.BinarySearchFunc(op.runs, live, func(r colRun, c int) int {
				return int(r.lo) - c
			})
			active := op.runs[:n]
			for ti, t := range m.Tiles {
				if op.broadcast || ti == int(op.tile) {
					t.active, t.end = active, live
				} else {
					t.active, t.end = nil, 0
				}
			}
		case opNot:
			for _, t := range m.Tiles {
				t.gateNot(op)
			}
		case opOr2:
			for _, t := range m.Tiles {
				t.gateOr2(op)
			}
		case opAnd2:
			for _, t := range m.Tiles {
				t.gateAnd2(op)
			}
		case opOr3:
			for _, t := range m.Tiles {
				t.gateOr3(op)
			}
		case opMaj3:
			for _, t := range m.Tiles {
				t.gateMaj3(op)
			}
		case opAnd3:
			for _, t := range m.Tiles {
				t.gateAnd3(op)
			}
		}
	}
	return nil
}

func fill(s []uint64, w uint64) {
	for i := range s {
		s[i] = w
	}
}

// The gate kernels apply one full-pulse gate to the lane words of a
// tile's active columns: each walks the runs (the last clipped at end)
// as subslices of its rows and calls its switch function's Word with a
// constant function, so the function's switch folds away. Reslicing the
// inputs to the run's length lets the compiler drop the bounds checks
// in the column loop.
//
// The loops stay apart from Tile.ExecLogicFull's on purpose: a shared
// kernel (a function table, one switched kernel, or the packed tile
// calling these through a BatchTile view) slowed one of the two engines.

func (t *BatchTile) gateNot(op *FlatOp) {
	out, a := t.rowWords(int(op.row)), t.rowWords(int(op.in[0]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a := a[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnNot.Word(a[i], 0, 0))
		}
	}
}

func (t *BatchTile) gateOr2(op *FlatOp) {
	out, a, b := t.rowWords(int(op.row)), t.rowWords(int(op.in[0])), t.rowWords(int(op.in[1]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a, b := a[r.lo:][:len(o)], b[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnOr2.Word(a[i], b[i], 0))
		}
	}
}

func (t *BatchTile) gateAnd2(op *FlatOp) {
	out, a, b := t.rowWords(int(op.row)), t.rowWords(int(op.in[0])), t.rowWords(int(op.in[1]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a, b := a[r.lo:][:len(o)], b[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnAnd2.Word(a[i], b[i], 0))
		}
	}
}

func (t *BatchTile) gateOr3(op *FlatOp) {
	out, a, b, c := t.rowWords(int(op.row)), t.rowWords(int(op.in[0])), t.rowWords(int(op.in[1])), t.rowWords(int(op.in[2]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a, b, c := a[r.lo:][:len(o)], b[r.lo:][:len(o)], c[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnOr3.Word(a[i], b[i], c[i]))
		}
	}
}

func (t *BatchTile) gateMaj3(op *FlatOp) {
	out, a, b, c := t.rowWords(int(op.row)), t.rowWords(int(op.in[0])), t.rowWords(int(op.in[1])), t.rowWords(int(op.in[2]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a, b, c := a[r.lo:][:len(o)], b[r.lo:][:len(o)], c[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnMaj3.Word(a[i], b[i], c[i]))
		}
	}
}

func (t *BatchTile) gateAnd3(op *FlatOp) {
	out, a, b, c := t.rowWords(int(op.row)), t.rowWords(int(op.in[0])), t.rowWords(int(op.in[1])), t.rowWords(int(op.in[2]))
	m, end := op.mix, t.end
	for _, r := range t.active {
		o := out[r.lo:min(int(r.hi), end)]
		a, b, c := a[r.lo:][:len(o)], b[r.lo:][:len(o)], c[r.lo:][:len(o)]
		for i, w := range o {
			o[i] = m.apply(w, mtj.FnAnd3.Word(a[i], b[i], c[i]))
		}
	}
}
