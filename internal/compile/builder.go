// Package compile maps computation onto MOUSE instructions, following the
// application-mapping discipline of Sections VI and VII of the paper:
// variables are assigned to rows, logic gates chain through alternating
// row parities (a gate's inputs share one bit-line parity and its output
// takes the other), every gate output is preset by a write instruction
// before the gate executes, and the whole instruction sequence runs
// simultaneously in every active column (column-level parallelism).
//
// The Builder is a small netlist compiler: it allocates rows, inserts the
// preset writes, checks the parity rule, and transparently inserts BUF
// copies when two operands sit on mismatched parities. On top of single
// gates it provides the arithmetic macro library the paper's benchmarks
// need — XOR/XNOR in three gates, a seven-gate full adder (majority carry
// plus two XORs), ripple add/subtract, shift-add multiply, square,
// popcount trees, and comparisons — exactly the blocks the paper's
// greedy, column-minimal scheduling composes (Section VI).
//
// Word bits are laid out on alternating parities so that ripple carries
// land on the parity the next stage needs, avoiding per-stage copies.
package compile

import (
	"fmt"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Bit is a 1-bit signal resident in one row (present in every active
// column). The zero Bit is invalid.
type Bit struct {
	// Row is the row holding the signal; -1 marks an invalid bit.
	Row int
	ok  bool
}

// Valid reports whether the bit refers to a real row.
func (b Bit) Valid() bool { return b.ok }

// Parity returns the bit's row parity (0 even, 1 odd).
func (b Bit) Parity() int { return b.Row & 1 }

// Word is a multi-bit unsigned or two's-complement value, least
// significant bit first.
type Word []Bit

// Len returns the bit width.
func (w Word) Len() int { return len(w) }

// Builder compiles a sequence of gate and memory operations into a MOUSE
// program. Errors are sticky: after the first failure every operation
// becomes a no-op and Err reports the cause, keeping arithmetic
// construction code free of per-call error handling.
type Builder struct {
	rows int
	prog isa.Program
	free [2][]int // free rows by parity, used LIFO
	err  error
	ctx  CheckContext // deployment context handed to ProgramCheck

	// gates counts emitted logic gates (excluding presets), for
	// reporting against the paper's operation counts.
	gates int

	// peak tracks the high-water mark of simultaneously allocated rows —
	// the row pressure that decides how many operands fit per column
	// (the packing constraint of Section VI's greedy scheduling).
	peak int
}

// NewBuilder creates a builder for tiles with the given row count. Rows
// are handed out from 0 upward; reserve operand rows first with Reserve.
func NewBuilder(rows int) *Builder {
	b := &Builder{rows: rows, ctx: CheckContext{Rows: rows}}
	for r := rows - 1; r >= 0; r-- { // LIFO: low rows come out first
		b.free[r&1] = append(b.free[r&1], r)
	}
	return b
}

// Err returns the first error encountered, if any.
func (b *Builder) Err() error { return b.err }

// fail records the first error.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("compile: "+format, args...)
	}
}

// CheckContext carries the deployment facts a self-check needs beyond
// the instruction stream itself: the technology configuration (whose
// capacitor sizes the discharge window), the checkpoint interval the
// program will run under, and the machine geometry. Zero fields mean
// "unknown" and the checker falls back to its defaults (full ISA
// geometry, Modern STT, per-instruction checkpointing).
type CheckContext struct {
	// Cfg is the technology the program will deploy on; nil → default.
	Cfg *mtj.Config
	// CheckpointInterval is the replay-region length; ≤ 1 →
	// per-instruction checkpointing.
	CheckpointInterval int
	// Tiles, Rows, Cols bound the deployed array; zero fields default to
	// the full ISA address space.
	Tiles, Rows, Cols int
}

// ProgramCheck, when non-nil, is applied to every program Program()
// would return successfully; a non-nil result becomes the compile
// error. The compile test suite installs the lint package's verifier
// here so every compiler-emitted program is statically self-checked
// against its deployment context — geometry, technology, capacitor,
// checkpoint interval — (the package itself stays free of the
// dependency).
var ProgramCheck func(isa.Program, CheckContext) error

// SetCheckContext records the deployment context the self-check hook
// receives from Program(). Callers that know their capacitor and
// checkpoint interval set it right after NewBuilder.
func (b *Builder) SetCheckContext(ctx CheckContext) {
	if ctx.Rows == 0 {
		ctx.Rows = b.rows
	}
	b.ctx = ctx
}

// Program returns the compiled program. It returns the builder's error,
// if any, and validates (and, when a ProgramCheck is installed,
// self-checks) the result.
func (b *Builder) Program() (isa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	if ProgramCheck != nil {
		if err := ProgramCheck(b.prog, b.ctx); err != nil {
			return nil, fmt.Errorf("compile: self-check: %w", err)
		}
	}
	return b.prog, nil
}

// GateCount returns the number of logic gates emitted so far.
func (b *Builder) GateCount() int { return b.gates }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.prog) }

// Reserve marks a specific row as in use (for operand placement) and
// returns it as a Bit. Reserving an already-allocated row fails.
func (b *Builder) Reserve(row int) Bit {
	if b.err != nil {
		return Bit{Row: -1}
	}
	list := b.free[row&1]
	for i, r := range list {
		if r == row {
			b.free[row&1] = append(list[:i], list[i+1:]...)
			if used := b.rows - len(b.free[0]) - len(b.free[1]); used > b.peak {
				b.peak = used
			}
			return Bit{Row: row, ok: true}
		}
	}
	b.fail("row %d is not free", row)
	return Bit{Row: -1}
}

// Alloc returns a fresh row of the requested parity (0 or 1).
func (b *Builder) Alloc(parity int) Bit {
	if b.err != nil {
		return Bit{Row: -1}
	}
	list := b.free[parity&1]
	if len(list) == 0 {
		b.fail("out of rows with parity %d", parity&1)
		return Bit{Row: -1}
	}
	r := list[len(list)-1]
	b.free[parity&1] = list[:len(list)-1]
	if used := b.rows - len(b.free[0]) - len(b.free[1]); used > b.peak {
		b.peak = used
	}
	return Bit{Row: r, ok: true}
}

// PeakRows returns the high-water mark of simultaneously live rows.
func (b *Builder) PeakRows() int { return b.peak }

// Free returns a bit's row to the allocator.
func (b *Builder) Free(bits ...Bit) {
	for _, bit := range bits {
		if bit.ok {
			b.free[bit.Row&1] = append(b.free[bit.Row&1], bit.Row)
		}
	}
}

// FreeWord releases every bit of a word.
func (b *Builder) FreeWord(w Word) {
	for _, bit := range w {
		b.Free(bit)
	}
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instruction) {
	if b.err != nil {
		return
	}
	if err := in.Validate(); err != nil {
		b.fail("emit: %v", err)
		return
	}
	b.prog = append(b.prog, in)
}

// ActivateBroadcast emits Activate Columns instructions selecting the
// given columns in every tile, batching into the ranged form when the
// columns are a contiguous run and into ≤5-column lists otherwise.
func (b *Builder) ActivateBroadcast(cols []uint16) {
	if b.err != nil || len(cols) == 0 {
		return
	}
	// Contiguous run (common case) → single ranged ACT.
	contiguous := true
	for i := 1; i < len(cols); i++ {
		if cols[i] != cols[i-1]+1 {
			contiguous = false
			break
		}
	}
	if contiguous {
		b.Emit(isa.ActRange(true, 0, int(cols[0]), len(cols), 1))
		return
	}
	// The replacement semantics of ACT mean a scattered set larger than
	// one list instruction cannot be expressed; the mapper should use
	// contiguous runs (greedy allocation naturally does).
	if len(cols) > isa.MaxActList {
		b.fail("scattered activation of %d columns exceeds one ACT list", len(cols))
		return
	}
	b.Emit(isa.ActList(true, 0, cols))
}

// MoveRows emits a read / rotated-write pair for each (src, dst) row
// pair: data in column c of the source rows lands in column (c+rot) mod
// 1024 of the destination rows. This is how partial results migrate
// across columns to meet (Section VI: "the partial sums are moved, via
// reads and writes, to a single column"); the bit lines themselves only
// move data vertically.
func (b *Builder) MoveRows(tile int, src, dst []int, rot int) {
	if b.err != nil {
		return
	}
	if len(src) != len(dst) {
		b.fail("MoveRows: %d source rows but %d destinations", len(src), len(dst))
		return
	}
	for i := range src {
		b.Emit(isa.Read(tile, src[i]))
		b.Emit(isa.WriteRot(tile, dst[i], rot))
	}
}

// MoveWord moves a word's rows into freshly allocated rows, shifted rot
// columns, returning the destination word (same widths and parities).
func (b *Builder) MoveWord(tile int, w Word, rot int) Word {
	dst := make(Word, len(w))
	src := make([]int, len(w))
	rows := make([]int, len(w))
	for i, bit := range w {
		dst[i] = b.Alloc(bit.Parity())
		if !dst[i].ok {
			return dst
		}
		src[i] = bit.Row
		rows[i] = dst[i].Row
	}
	b.MoveRows(tile, src, rows, rot)
	return dst
}

// Gate emits the preset write and logic instruction for gate g with the
// given inputs, placing the result on a freshly allocated row of the
// opposite parity. Inputs must share a parity; use ensureParity or the
// higher-level helpers for mixed operands.
func (b *Builder) Gate(g mtj.GateKind, ins ...Bit) Bit {
	if b.err != nil {
		return Bit{Row: -1}
	}
	spec := mtj.Spec(g)
	if len(ins) != spec.Inputs {
		b.fail("%s takes %d inputs, got %d", g, spec.Inputs, len(ins))
		return Bit{Row: -1}
	}
	p := ins[0].Parity()
	rows := make([]int, len(ins))
	for i, in := range ins {
		if !in.ok {
			b.fail("%s: invalid input bit", g)
			return Bit{Row: -1}
		}
		if in.Parity() != p {
			b.fail("%s: mixed input parities (rows %d, %d)", g, ins[0].Row, in.Row)
			return Bit{Row: -1}
		}
		rows[i] = in.Row
	}
	out := b.Alloc(1 - p)
	if !out.ok {
		return Bit{Row: -1}
	}
	b.Emit(isa.Preset(out.Row, spec.Preset))
	b.Emit(isa.Logic(g, rows, out.Row))
	b.gates++
	return out
}

// Copy materializes a on the opposite parity via a BUF gate.
func (b *Builder) Copy(a Bit) Bit { return b.Gate(mtj.BUF, a) }

// NOT returns the complement of a (opposite parity).
func (b *Builder) NOT(a Bit) Bit { return b.Gate(mtj.NOT, a) }

// ensureParity returns a sibling of x on parity p, inserting a copy when
// needed. The second return reports whether a scratch copy was made (the
// caller should free it).
func (b *Builder) ensureParity(x Bit, p int) (Bit, bool) {
	if !x.ok || x.Parity() == p {
		return x, false
	}
	return b.Copy(x), true
}

// align brings two bits onto a common parity (preferring their current
// majority), returning them plus any scratch copies to free.
func (b *Builder) align(x, y Bit) (Bit, Bit, []Bit) {
	if !x.ok || !y.ok || x.Parity() == y.Parity() {
		return x, y, nil
	}
	cy := b.Copy(y)
	return x, cy, []Bit{cy}
}

// Const returns a bit holding the constant v, written by a preset.
func (b *Builder) Const(v int, parity int) Bit {
	out := b.Alloc(parity)
	if !out.ok {
		return out
	}
	b.Emit(isa.Preset(out.Row, mtj.FromBit(v)))
	return out
}

// binary emits a two-input gate after aligning parities. Duplicate
// operands (the same row twice — impossible in hardware, where a cell has
// a single MTJ) fold to their logical identities.
func (b *Builder) binary(g mtj.GateKind, x, y Bit) Bit {
	if x.ok && y.ok && x.Row == y.Row {
		switch g {
		case mtj.AND2, mtj.OR2:
			return b.Copy(x)
		case mtj.NAND2, mtj.NOR2:
			return b.NOT(x)
		}
		b.fail("%s: duplicate operand row %d", g, x.Row)
		return Bit{Row: -1}
	}
	x, y, scratch := b.align(x, y)
	out := b.Gate(g, x, y)
	b.Free(scratch...)
	return out
}

// AND returns x∧y.
func (b *Builder) AND(x, y Bit) Bit { return b.binary(mtj.AND2, x, y) }

// OR returns x∨y.
func (b *Builder) OR(x, y Bit) Bit { return b.binary(mtj.OR2, x, y) }

// NAND returns ¬(x∧y).
func (b *Builder) NAND(x, y Bit) Bit { return b.binary(mtj.NAND2, x, y) }

// NOR returns ¬(x∨y).
func (b *Builder) NOR(x, y Bit) Bit { return b.binary(mtj.NOR2, x, y) }

// XOR returns x⊕y in three gates: AND(NAND(x,y), OR(x,y)).
func (b *Builder) XOR(x, y Bit) Bit {
	if x.ok && y.ok && x.Row == y.Row {
		return b.Const(0, 1-x.Parity())
	}
	x, y, scratch := b.align(x, y)
	n := b.Gate(mtj.NAND2, x, y)
	o := b.Gate(mtj.OR2, x, y)
	out := b.Gate(mtj.AND2, n, o)
	b.Free(n, o)
	b.Free(scratch...)
	return out
}

// XNOR returns ¬(x⊕y) in three gates: OR(AND(x,y), NOR(x,y)). XNOR is
// the BNN multiply (Section III).
func (b *Builder) XNOR(x, y Bit) Bit {
	if x.ok && y.ok && x.Row == y.Row {
		return b.Const(1, 1-x.Parity())
	}
	x, y, scratch := b.align(x, y)
	a := b.Gate(mtj.AND2, x, y)
	n := b.Gate(mtj.NOR2, x, y)
	out := b.Gate(mtj.OR2, a, n)
	b.Free(a, n)
	b.Free(scratch...)
	return out
}

// MAJ returns the majority of three bits (after parity alignment).
// Duplicate operands fold: MAJ(x,x,z) = x.
func (b *Builder) MAJ(x, y, z Bit) Bit {
	if x.ok && y.ok && z.ok {
		switch {
		case x.Row == y.Row:
			return b.Copy(x)
		case x.Row == z.Row:
			return b.Copy(x)
		case y.Row == z.Row:
			return b.Copy(y)
		}
	}
	// Align y and z to x's parity.
	p := x.Parity()
	y2, cy := b.ensureParity(y, p)
	z2, cz := b.ensureParity(z, p)
	out := b.Gate(mtj.MAJ3, x, y2, z2)
	if cy {
		b.Free(y2)
	}
	if cz {
		b.Free(z2)
	}
	return out
}
