// Package array is the bit-accurate functional model of MOUSE's memory
// tiles (Section II-C of the paper): MTJ cell arrays with even/odd bit
// lines, a shared logic line per column, word lines per row, and a
// column-activation latch in the peripheral circuitry.
//
// The package distinguishes non-volatile state (the MTJ cells themselves,
// which survive power outages) from volatile peripheral state (the
// column-activation latches, which do not). A simulated outage clears the
// volatile state via LoseVolatile; the controller restores it by
// re-issuing the most recent Activate Columns instruction (Section IV-D).
//
// Cell storage is packed: each row is a bit-plane of uint64 words (one
// bit per column, 1 = AP = logic 1), and the activation latch is a
// packed mask with a cached popcount. A full, uninterrupted logic pulse
// switches the output exactly where the gate's switch function
// (mtj.SwitchFn) holds: package mtj derives each (gate, configuration)
// truth table once from the resistor-network model and refuses one that
// differs from the gate's spec. ExecLogicFull therefore executes a gate
// over 64 columns per boolean word operation, exactly as the hardware's
// column broadcast does.
//
// Interrupted operations (truncated or per-column-partial current
// pulses) still execute through the scalar resistor-network device
// model, cell by cell, so outage semantics are untouched: outputs either
// completed their unidirectional switch or were left alone, and
// re-performing the operation is always safe. Tests assert the packed
// and scalar paths are bit-identical.
package array

import (
	"fmt"
	"math/bits"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Tile is one MTJ array with its column-activation latch.
type Tile struct {
	cfg  *mtj.Config
	rows int
	cols int

	// wpr is the number of uint64 words per row; tail masks the valid
	// bits of a row's final word.
	wpr  int
	tail uint64

	// planes holds the non-volatile cell states as packed bit-planes,
	// row-major: bit c%64 of planes[row*wpr+c/64] is cell (row, c),
	// 1 = AP = logic 1. Bits at column positions >= cols are always 0.
	planes []uint64

	// active is the volatile peripheral column latch, packed like a row,
	// with its popcount cached in nActive.
	active  []uint64
	nActive int

	// scratch backs word-parallel row writes (packing + rotation).
	scratch, scratch2 []uint64
}

// NewTile creates a rows×cols tile with every cell in the P (0) state and
// no columns active.
func NewTile(cfg *mtj.Config, rows, cols int) *Tile {
	if rows <= 0 || cols <= 0 || rows > isa.Rows || cols > isa.Cols {
		panic(fmt.Sprintf("array: bad tile geometry %dx%d", rows, cols))
	}
	wpr := wordsFor(cols)
	return &Tile{
		cfg:      cfg,
		rows:     rows,
		cols:     cols,
		wpr:      wpr,
		tail:     tailMask(cols),
		planes:   make([]uint64, rows*wpr),
		active:   make([]uint64, wpr),
		scratch:  make([]uint64, wpr),
		scratch2: make([]uint64, wpr),
	}
}

// Rows returns the number of rows in the tile.
func (t *Tile) Rows() int { return t.rows }

// Cols returns the number of columns in the tile.
func (t *Tile) Cols() int { return t.cols }

// rowWords returns row r's packed bit-plane.
func (t *Tile) rowWords(r int) []uint64 {
	return t.planes[r*t.wpr : (r+1)*t.wpr]
}

func (t *Tile) checkCell(row, col int) {
	if row < 0 || row >= t.rows || col < 0 || col >= t.cols {
		panic(fmt.Sprintf("array: cell (%d, %d) outside %dx%d tile", row, col, t.rows, t.cols))
	}
}

// state returns the magnetic state of cell (row, col).
func (t *Tile) state(row, col int) mtj.State {
	if t.planes[row*t.wpr+col/wordBits]>>(col%wordBits)&1 == 1 {
		return mtj.AP
	}
	return mtj.P
}

// setState forces cell (row, col) into state s.
func (t *Tile) setState(row, col int, s mtj.State) {
	bit := uint64(1) << (col % wordBits)
	if s == mtj.AP {
		t.planes[row*t.wpr+col/wordBits] |= bit
	} else {
		t.planes[row*t.wpr+col/wordBits] &^= bit
	}
}

// Bit returns the logic value stored at (row, col).
func (t *Tile) Bit(row, col int) int {
	t.checkCell(row, col)
	return t.state(row, col).Bit()
}

// SetBit stores a logic value at (row, col), modelling a completed write.
func (t *Tile) SetBit(row, col, bit int) {
	t.checkCell(row, col)
	t.setState(row, col, mtj.FromBit(bit))
}

// ActiveColumns returns the indices of currently active columns.
func (t *Tile) ActiveColumns() []int {
	out := make([]int, 0, t.nActive)
	for wi, w := range t.active {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			out = append(out, wi*wordBits+b)
		}
	}
	return out
}

// ActiveCount returns how many columns are active (cached popcount of
// the packed latch — O(1), it is read per instruction for energy
// accounting).
func (t *Tile) ActiveCount() int { return t.nActive }

// SetActive replaces the tile's active-column latch with exactly the
// given columns. Columns beyond the tile width are ignored (the decoder
// simply has no such column).
func (t *Tile) SetActive(cols []uint16) {
	for i := range t.active {
		t.active[i] = 0
	}
	for _, c := range cols {
		if int(c) < t.cols {
			t.active[c/wordBits] |= 1 << (c % wordBits)
		}
	}
	t.nActive = popcount(t.active)
}

// ClearActive deactivates every column.
func (t *Tile) ClearActive() { t.SetActive(nil) }

// LoseVolatile models a power outage: the peripheral activation latch is
// cleared, while the MTJ cells retain their states.
func (t *Tile) LoseVolatile() { t.ClearActive() }

// ReadRow senses one full row into buf (least-significant bit of buf[0]
// is column 0). buf must hold at least (cols+7)/8 bytes.
func (t *Tile) ReadRow(row int, buf []byte) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	if len(buf)*8 < t.cols {
		return fmt.Errorf("array: read buffer too small (%d bytes for %d columns)", len(buf), t.cols)
	}
	unpackBytes(buf, t.rowWords(row))
	return nil
}

// WriteRow writes one full row from buf, the inverse of ReadRow.
// upTo limits how many columns complete (modelling an interrupted write);
// pass cols or more for a full write. Re-performing an interrupted write
// is safe because writes do not depend on the previous cell state.
func (t *Tile) WriteRow(row int, buf []byte, upTo int) error {
	return t.WriteRowRot(row, buf, 0, upTo)
}

// WriteRowRot writes one full row from buf rotated left by rot columns:
// destination column c receives buffer bit (c-rot) mod cols. A read
// followed by a rotated write moves data horizontally across columns —
// the only horizontal datapath MOUSE has (Section VI's partial-sum
// moves). The pair stays idempotent across outages because the buffer is
// non-volatile and the write overwrites unconditionally.
//
// The whole operation is word-parallel: the buffer is packed into words,
// rotated with word shifts, and merged under the interruption mask.
func (t *Tile) WriteRowRot(row int, buf []byte, rot, upTo int) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	if len(buf)*8 < t.cols {
		return fmt.Errorf("array: write buffer too small (%d bytes for %d columns)", len(buf), t.cols)
	}
	if rot < 0 || rot >= t.cols {
		return fmt.Errorf("array: rotation %d out of range [0, %d)", rot, t.cols)
	}
	if upTo > t.cols {
		upTo = t.cols
	}
	if upTo <= 0 {
		return nil
	}
	src := t.scratch
	packBytes(src, buf, t.cols)
	if rot != 0 {
		rotlInto(t.scratch2, src, t.cols, rot)
		src = t.scratch2
	}
	dst := t.rowWords(row)
	if upTo >= t.cols {
		copy(dst, src)
		return nil
	}
	// Interrupted write: columns 0..upTo-1 take the new value, the rest
	// keep theirs.
	for i := range dst {
		var m uint64
		switch base := i * wordBits; {
		case base+wordBits <= upTo:
			m = ^uint64(0)
		case base < upTo:
			m = 1<<(upTo-base) - 1
		}
		dst[i] = dst[i]&^m | src[i]&m
	}
	return nil
}

// PresetRow writes state s into row across the active columns, the
// preparation step before a logic operation. upTo limits how many of the
// active columns complete (interruption model); pass the column count or
// more for a full preset.
func (t *Tile) PresetRow(row int, s mtj.State, upTo int) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	if upTo <= 0 {
		return nil
	}
	dst := t.rowWords(row)
	need := upTo
	for i, w := range t.active {
		if w == 0 {
			continue
		}
		m := w
		pc := bits.OnesCount64(w)
		if pc > need {
			m = lowestSetBits(w, need)
		}
		if s == mtj.AP {
			dst[i] |= m
		} else {
			dst[i] &^= m
		}
		if pc >= need {
			return nil
		}
		need -= pc
	}
	return nil
}

// PulseLength describes how much of a logic operation's current pulse a
// column received, as a fraction of the switching time. A full operation
// delivers 1.0 everywhere; an interrupted operation delivers less in some
// or all columns.
type PulseLength func(col int) float64

// FullPulse is the uninterrupted pulse profile.
func FullPulse(int) float64 { return 1.0 }

// checkLogic validates gate arity, row bounds, and the bit-line parity
// crossing requirement shared by both execution paths.
func (t *Tile) checkLogic(g mtj.GateKind, spec mtj.GateSpec, inRows []int, outRow int) error {
	if len(inRows) != spec.Inputs {
		return fmt.Errorf("array: %s takes %d inputs, got %d", g, spec.Inputs, len(inRows))
	}
	if err := t.checkRow(outRow); err != nil {
		return err
	}
	for _, r := range inRows {
		if err := t.checkRow(r); err != nil {
			return err
		}
		if r&1 == outRow&1 {
			return fmt.Errorf("array: %s: input row %d shares parity with output row %d", g, r, outRow)
		}
	}
	return nil
}

// ExecLogic performs gate g with the given input rows and output row in
// every active column, delivering pulse(col) of the switching time to
// each column. Input and output parities must satisfy the bit-line
// crossing requirement (validated at the ISA layer; re-checked here).
//
// This is the scalar resistor-network path: it solves the network and
// integrates the switching pulse per cell, so it models arbitrary
// per-column interruption profiles. Full pulses take the word-parallel
// ExecLogicFull instead; the two are bit-identical where they overlap.
func (t *Tile) ExecLogic(g mtj.GateKind, inRows []int, outRow int, pulse PulseLength) error {
	spec := mtj.Spec(g)
	if err := t.checkLogic(g, spec, inRows, outRow); err != nil {
		return err
	}
	bias, err := mtj.Bias(g, t.cfg)
	if err != nil {
		return err
	}
	inputs := make([]mtj.State, spec.Inputs)
	for wi, w := range t.active {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			c := wi*wordBits + b
			for i, r := range inRows {
				inputs[i] = t.state(r, c)
			}
			i := mtj.DriveCurrent(g, t.cfg, bias, inputs)
			dur := pulse(c) * t.cfg.P.SwitchTime
			d := mtj.NewDevice(t.state(outRow, c))
			d.ApplyPulse(&t.cfg.P, spec.Dir, i, dur)
			t.setState(outRow, c, d.State())
		}
	}
	return nil
}

// ExecLogicFull performs gate g with a full, uninterrupted pulse in
// every active column, 64 columns per boolean word operation. The
// resistor network collapses to a threshold on the number of P-state
// inputs (mtj.Table derives it and checks it against the spec), so each
// word step evaluates the gate's switch function on the input bit-planes
// and switches exactly the active columns where it holds — the
// word-parallel image of the array's column broadcast.
func (t *Tile) ExecLogicFull(g mtj.GateKind, inRows []int, outRow int) error {
	spec := mtj.Spec(g)
	if err := t.checkLogic(g, spec, inRows, outRow); err != nil {
		return err
	}
	tbl, err := mtj.Table(g, t.cfg)
	if err != nil {
		return err
	}
	out := t.rowWords(outRow)
	toAP := tbl.Target == mtj.AP
	// Unused inputs alias the first; the switch function ignores them.
	in0 := t.rowWords(inRows[0])
	in1, in2 := in0, in0
	switch spec.Inputs {
	case 3:
		in2 = t.rowWords(inRows[2])
		fallthrough
	case 2:
		in1 = t.rowWords(inRows[1])
	}
	for i, act := range t.active {
		if act == 0 {
			continue
		}
		// sw: the active columns the gate switches. The active mask also
		// clears the tail garbage the complemented planes carry.
		sw := spec.Fn.Word(in0[i], in1[i], in2[i]) & act
		if toAP {
			out[i] |= sw
		} else {
			out[i] &^= sw
		}
	}
	return nil
}

func (t *Tile) checkRow(row int) error {
	if row < 0 || row >= t.rows {
		return fmt.Errorf("array: row %d out of range [0, %d)", row, t.rows)
	}
	return nil
}
