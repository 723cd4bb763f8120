package array

import (
	"fmt"
	"testing"
	"testing/quick"

	"mouse/internal/mtj"
)

// refTile is the seed's scalar tile implementation, kept verbatim as
// the differential-testing oracle for the packed engine: one
// mtj.Device per cell, a []bool activation latch, and per-cell
// resistor-network math for every operation.
type refTile struct {
	cfg    *mtj.Config
	rows   int
	cols   int
	cells  []mtj.Device
	active []bool
}

func newRefTile(cfg *mtj.Config, rows, cols int) *refTile {
	return &refTile{
		cfg:    cfg,
		rows:   rows,
		cols:   cols,
		cells:  make([]mtj.Device, rows*cols),
		active: make([]bool, cols),
	}
}

func (t *refTile) cell(row, col int) *mtj.Device { return &t.cells[row*t.cols+col] }

func (t *refTile) setActive(cols []uint16) {
	for i := range t.active {
		t.active[i] = false
	}
	for _, c := range cols {
		if int(c) < t.cols {
			t.active[c] = true
		}
	}
}

func (t *refTile) checkRow(row int) error {
	if row < 0 || row >= t.rows {
		return fmt.Errorf("array: row %d out of range [0, %d)", row, t.rows)
	}
	return nil
}

func (t *refTile) writeRowRot(row int, buf []byte, rot, upTo int) error {
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
	for c := 0; c < upTo; c++ {
		src := c - rot
		if src < 0 {
			src += t.cols
		}
		bit := int(buf[src/8]>>(src%8)) & 1
		t.cell(row, c).Set(mtj.FromBit(bit))
	}
	return nil
}

func (t *refTile) presetRow(row int, s mtj.State, upTo int) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	done := 0
	for c := 0; c < t.cols && done < upTo; c++ {
		if t.active[c] {
			t.cell(row, c).Set(s)
			done++
		}
	}
	return nil
}

func (t *refTile) execLogic(g mtj.GateKind, inRows []int, outRow int, pulse PulseLength) error {
	spec := mtj.Spec(g)
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
	bias, err := mtj.Bias(g, t.cfg)
	if err != nil {
		return err
	}
	inputs := make([]mtj.State, spec.Inputs)
	for c := 0; c < t.cols; c++ {
		if !t.active[c] {
			continue
		}
		for i, r := range inRows {
			inputs[i] = t.cell(r, c).State()
		}
		i := mtj.DriveCurrent(g, t.cfg, bias, inputs)
		dur := pulse(c) * t.cfg.P.SwitchTime
		t.cell(outRow, c).ApplyPulse(&t.cfg.P, spec.Dir, i, dur)
	}
	return nil
}

// assertSameState compares every cell and the activation latch.
func assertSameState(t *testing.T, step int, packed *Tile, ref *refTile) {
	t.Helper()
	for r := 0; r < ref.rows; r++ {
		for c := 0; c < ref.cols; c++ {
			if got, want := packed.Bit(r, c), ref.cell(r, c).Bit(); got != want {
				t.Fatalf("step %d: cell (%d,%d) = %d, scalar reference has %d", step, r, c, got, want)
			}
		}
	}
	var want []int
	for c, a := range ref.active {
		if a {
			want = append(want, c)
		}
	}
	if packed.ActiveCount() != len(want) {
		t.Fatalf("step %d: ActiveCount = %d, reference has %d", step, packed.ActiveCount(), len(want))
	}
	got := packed.ActiveColumns()
	if len(got) != len(want) {
		t.Fatalf("step %d: ActiveColumns = %v, reference %v", step, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: ActiveColumns = %v, reference %v", step, got, want)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzPackedVsScalarStream drives a random operation stream through the
// packed tile and the scalar reference, asserting bit-identical cell
// state, identical activation accounting, and identical errors after
// every operation. Geometry (including tail-word widths that do not
// divide 64) and the full/partial split are all fuzzer-chosen.
func FuzzPackedVsScalarStream(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{200, 100, 3, 250, 17, 90, 41, 7, 7, 7, 88, 13, 54, 255, 0, 32, 99, 1})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	widths := []int{1, 7, 63, 64, 65, 100, 128}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := mtj.Configs()[int(next())%3]
		rows := 4 + int(next())%8
		cols := widths[int(next())%len(widths)]
		packed := NewTile(cfg, rows, cols)
		ref := newRefTile(cfg, rows, cols)

		buf := make([]byte, (cols+7)/8)
		for step := 0; len(data) > 0 && step < 64; step++ {
			switch next() % 6 {
			case 0: // replace the activation latch
				n := int(next()) % (cols + 1)
				sel := make([]uint16, 0, n)
				for i := 0; i < n; i++ {
					sel = append(sel, uint16(int(next())%(cols+4))) // may exceed width: ignored
				}
				packed.SetActive(sel)
				ref.setActive(sel)
			case 1: // possibly-interrupted rotated row write
				row := int(next()) % (rows + 1) // may be out of range
				for i := range buf {
					buf[i] = next()
				}
				rot := int(next()) % (cols + 1) // may be out of range
				upTo := int(next()) % (cols + 2)
				gotErr := packed.WriteRowRot(row, buf, rot, upTo)
				wantErr := ref.writeRowRot(row, buf, rot, upTo)
				if errString(gotErr) != errString(wantErr) {
					t.Fatalf("step %d: WriteRowRot error %q, reference %q", step, errString(gotErr), errString(wantErr))
				}
			case 2: // possibly-interrupted preset
				row := int(next()) % (rows + 1)
				s := mtj.FromBit(int(next()) & 1)
				upTo := int(next()) % (cols + 2)
				gotErr := packed.PresetRow(row, s, upTo)
				wantErr := ref.presetRow(row, s, upTo)
				if errString(gotErr) != errString(wantErr) {
					t.Fatalf("step %d: PresetRow error %q, reference %q", step, errString(gotErr), errString(wantErr))
				}
			case 3, 4: // logic: packed fast path vs scalar network
				g := mtj.GateKind(int(next()) % mtj.NumGates)
				spec := mtj.Spec(g)
				outRow := int(next()) % rows
				inRows := make([]int, spec.Inputs)
				for i := range inRows {
					inRows[i] = int(next()) % rows // parity may clash: error path
				}
				gotErr := packed.ExecLogicFull(g, inRows, outRow)
				wantErr := ref.execLogic(g, inRows, outRow, FullPulse)
				if errString(gotErr) != errString(wantErr) {
					t.Fatalf("step %d: ExecLogicFull error %q, reference %q", step, errString(gotErr), errString(wantErr))
				}
			case 5: // interrupted logic: both take the scalar network path
				g := mtj.GateKind(int(next()) % mtj.NumGates)
				spec := mtj.Spec(g)
				outRow := int(next()) % rows
				inRows := make([]int, spec.Inputs)
				for i := range inRows {
					inRows[i] = int(next()) % rows
				}
				frac := float64(next()%128) / 100.0
				pulse := func(c int) float64 {
					if c%2 == 0 {
						return frac
					}
					return 1.0
				}
				gotErr := packed.ExecLogic(g, inRows, outRow, pulse)
				wantErr := ref.execLogic(g, inRows, outRow, pulse)
				if errString(gotErr) != errString(wantErr) {
					t.Fatalf("step %d: ExecLogic error %q, reference %q", step, errString(gotErr), errString(wantErr))
				}
			}
			assertSameState(t, step, packed, ref)
		}
	})
}

// TestWriteRowRotWordShiftsMatchScalar pins the word-shift rotation
// against the scalar reference across widths, rotations, and
// interruption points.
func TestWriteRowRotWordShiftsMatchScalar(t *testing.T) {
	cfg := mtj.ModernSTT()
	prop := func(seed uint64, rotRaw, upToRaw uint16, widthSel uint8) bool {
		widths := []int{1, 8, 63, 64, 65, 100, 128, 256}
		cols := widths[int(widthSel)%len(widths)]
		packed := NewTile(cfg, 2, cols)
		ref := newRefTile(cfg, 2, cols)
		buf := make([]byte, (cols+7)/8)
		s := seed
		for i := range buf {
			s = s*6364136223846793005 + 1442695040888963407
			buf[i] = byte(s >> 56)
		}
		rot := int(rotRaw) % cols
		upTo := int(upToRaw) % (cols + 2)
		if err := packed.WriteRowRot(1, buf, rot, upTo); err != nil {
			return false
		}
		if err := ref.writeRowRot(1, buf, rot, upTo); err != nil {
			return false
		}
		for c := 0; c < cols; c++ {
			if packed.Bit(1, c) != ref.cell(1, c).Bit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestExecLogicFullMatchesScalarAllGates exhaustively checks the packed
// fast path against the scalar path for every gate, configuration, and
// input pattern, on a width with a partial tail word. Every third column
// is active, and column c holds input pattern (c/3) mod 2^n, so pattern v
// sits on active column 3v and on inactive column 3v+1: each pattern
// is both computed and masked, and the patterns repeat across the word
// boundary.
func TestExecLogicFullMatchesScalarAllGates(t *testing.T) {
	const cols = 70
	for _, cfg := range mtj.Configs() {
		for g := mtj.GateKind(0); g.Valid(); g++ {
			n := mtj.Spec(g).Inputs
			packed := NewTile(cfg, 8, cols)
			scalar := NewTile(cfg, 8, cols)
			// Activate a ragged subset crossing the word boundary.
			var act []uint16
			for c := 0; c < cols; c += 3 {
				act = append(act, uint16(c))
			}
			packed.SetActive(act)
			scalar.SetActive(act)
			inRows := []int{0, 2, 4}[:n]
			for c := 0; c < cols; c++ {
				v := c / 3 % (1 << n)
				for i := 0; i < n; i++ {
					packed.SetBit(inRows[i], c, v>>i&1)
					scalar.SetBit(inRows[i], c, v>>i&1)
				}
			}
			// Mixed preset states on the output row, including non-preset
			// values a prior gate may have left behind.
			for c := 0; c < cols; c++ {
				packed.SetBit(1, c, c&1)
				scalar.SetBit(1, c, c&1)
			}
			if err := packed.ExecLogicFull(g, inRows, 1); err != nil {
				t.Fatal(err)
			}
			if err := scalar.ExecLogic(g, inRows, 1, FullPulse); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cols; c++ {
				for r := 0; r < 8; r++ {
					if packed.Bit(r, c) != scalar.Bit(r, c) {
						t.Fatalf("%s/%s: (%d,%d) packed %d scalar %d", cfg.Name, g, r, c, packed.Bit(r, c), scalar.Bit(r, c))
					}
				}
			}
		}
	}
}

// TestPresetRowPartialBoundaryWords exercises the lowest-set-bits
// selection at word boundaries: active columns straddling words, with
// interruption points landing inside each word.
func TestPresetRowPartialBoundaryWords(t *testing.T) {
	cfg := mtj.ModernSTT()
	const cols = 130
	var act []uint16
	for c := 60; c < 70; c++ {
		act = append(act, uint16(c))
	}
	act = append(act, 127, 128, 129)
	for upTo := 0; upTo <= len(act)+1; upTo++ {
		packed := NewTile(cfg, 2, cols)
		ref := newRefTile(cfg, 2, cols)
		packed.SetActive(act)
		ref.setActive(act)
		if err := packed.PresetRow(1, mtj.AP, upTo); err != nil {
			t.Fatal(err)
		}
		if err := ref.presetRow(1, mtj.AP, upTo); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cols; c++ {
			if packed.Bit(1, c) != ref.cell(1, c).Bit() {
				t.Fatalf("upTo=%d: col %d packed %d ref %d", upTo, c, packed.Bit(1, c), ref.cell(1, c).Bit())
			}
		}
	}
}
