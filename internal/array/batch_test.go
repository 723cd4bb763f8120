package array

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Batch-engine geometry: two tiles so tile addressing and broadcast ACT
// differ, and a column count above one word so the scalar machine's
// multi-word rows, rotation across word boundaries, and tail masking
// are all in play.
const (
	batchTestTiles = 2
	batchTestRows  = 16
	batchTestCols  = 70
)

// randBatchProgram emits a valid random instruction stream: activation
// changes (broadcast and per-tile, list and range forms), presets,
// logic over every gate kind, reads, and rotated writes — the full
// datapath surface the batch replay must reproduce. A fixed share of
// the gates follow a preset of their own output row, the pair Flatten
// fuses into one op.
func randBatchProgram(rng *rand.Rand, n int) isa.Program {
	var p isa.Program
	p = append(p, isa.ActRange(true, 0, 0, batchTestCols, 1))
	for len(p) < n {
		switch rng.Intn(10) {
		case 0: // narrow list activation
			cols := make([]uint16, 1+rng.Intn(isa.MaxActList))
			for i := range cols {
				cols[i] = uint16(rng.Intn(batchTestCols + 8)) // some beyond width
			}
			p = append(p, isa.ActList(rng.Intn(2) == 0, rng.Intn(batchTestTiles), cols))
		case 1: // ranged activation
			p = append(p, isa.ActRange(rng.Intn(2) == 0, rng.Intn(batchTestTiles),
				rng.Intn(batchTestCols), 1+rng.Intn(batchTestCols), 1+rng.Intn(3)))
		case 2:
			p = append(p, isa.Preset(rng.Intn(batchTestRows), mtj.FromBit(rng.Intn(2))))
		case 3:
			p = append(p, isa.Read(rng.Intn(batchTestTiles), rng.Intn(batchTestRows)))
		case 4:
			p = append(p, isa.WriteRot(rng.Intn(batchTestTiles), rng.Intn(batchTestRows),
				rng.Intn(2*batchTestCols))) // exercises the width wrap
		case 5, 6: // a preset fused into the gate that follows it
			out := rng.Intn(batchTestRows)
			p = append(p, isa.Preset(out, mtj.FromBit(rng.Intn(2))), randGate(rng, out))
		default:
			p = append(p, randGate(rng, rng.Intn(batchTestRows)))
		}
	}
	return p
}

// randGate returns a random gate writing row out, its inputs distinct
// rows of the opposite parity.
func randGate(rng *rand.Rand, out int) isa.Instruction {
	g := mtj.GateKind(rng.Intn(mtj.NumGates))
	perm := rng.Perm(batchTestRows / 2)
	ins := make([]int, mtj.Spec(g).Inputs)
	for i := range ins {
		ins[i] = perm[i]*2 + 1 - out&1
	}
	return isa.Logic(g, ins, out)
}

// seedLane fills one scalar machine with lane's random initial cell
// states, and mirrors them into the batch machine when b is non-nil.
func seedLane(rng *rand.Rand, m *Machine, b *BatchMachine, lane int) {
	for ti, t := range m.Tiles {
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				bit := rng.Intn(2)
				t.SetBit(r, c, bit)
				if b != nil {
					b.SetLaneBit(lane, ti, r, c, bit)
				}
			}
		}
	}
}

// requireLaneEqual extracts lane from the batch machine and compares
// every byte of non-volatile state (cells, buffer) plus the restored
// activation latches against the sequentially-run scalar machine.
func requireLaneEqual(t *testing.T, b *BatchMachine, lane int, want *Machine) {
	t.Helper()
	got := NewMachine(want.Cfg, len(want.Tiles), want.Tiles[0].Rows(), want.Tiles[0].Cols())
	if err := b.StoreLane(lane, got); err != nil {
		t.Fatalf("lane %d: %v", lane, err)
	}
	for ti := range want.Tiles {
		wt, gt := want.Tiles[ti], got.Tiles[ti]
		for r := 0; r < wt.Rows(); r++ {
			for c := 0; c < wt.Cols(); c++ {
				if wt.Bit(r, c) != gt.Bit(r, c) {
					t.Fatalf("lane %d: tile %d cell (%d, %d): sequential %d, batched %d",
						lane, ti, r, c, wt.Bit(r, c), gt.Bit(r, c))
				}
			}
		}
		wa, ga := wt.ActiveColumns(), gt.ActiveColumns()
		if len(wa) != len(ga) {
			t.Fatalf("lane %d: tile %d: active %v (sequential) vs %v (batched)", lane, ti, wa, ga)
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("lane %d: tile %d: active %v (sequential) vs %v (batched)", lane, ti, wa, ga)
			}
		}
	}
	if !bytes.Equal(want.Buffer, got.Buffer) {
		t.Fatalf("lane %d: buffer % x (sequential) vs % x (batched)", lane, want.Buffer, got.Buffer)
	}
}

// runBatchedVsSequential is the shared differential harness: lanes
// random initial states, one random program, executed lane-by-lane on
// fresh scalar machines (the k-th sequential run) and once on the batch
// machine; every lane must match byte for byte.
func runBatchedVsSequential(t *testing.T, seed int64, lanes, progLen int) {
	t.Helper()
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(seed))
	prog := randBatchProgram(rng, progLen)
	flat, err := Flatten(prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	seq := make([]*Machine, lanes)
	for lane := 0; lane < lanes; lane++ {
		m := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
		seedLane(rng, m, b, lane)
		seq[lane] = m
	}
	for lane, m := range seq {
		for i, in := range prog {
			if err := m.Exec(in); err != nil {
				t.Fatalf("lane %d: instruction %d (%v): %v", lane, i, in, err)
			}
		}
	}
	if err := b.Replay(flat, batchTestCols); err != nil {
		t.Fatal(err)
	}
	for lane, m := range seq {
		requireLaneEqual(t, b, lane, m)
	}
}

// FuzzBatchedVsSequential: for random gate streams and batch sizes
// 1–64, batched lane k must be byte-identical to the k-th sequential
// run — the batch engine's core proof obligation, mirroring the
// packed-vs-scalar fuzz of the column engine.
func FuzzBatchedVsSequential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(7))
	f.Add(int64(3), uint8(63))
	f.Add(int64(4), uint8(64))
	f.Add(int64(5), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, rawLanes uint8) {
		lanes := int(rawLanes)%MaxLanes + 1
		runBatchedVsSequential(t, seed, lanes, 48)
	})
}

// TestBatchedVsSequentialSweep pins the differential check across every
// batch size in a normal test run (the fuzzer's seed corpus only covers
// a handful).
func TestBatchedVsSequentialSweep(t *testing.T) {
	for lanes := 1; lanes <= MaxLanes; lanes++ {
		runBatchedVsSequential(t, int64(1000+lanes), lanes, 32)
	}
}

// cloneBatch returns an independent copy of b's cells, buffer and
// activation latches.
func cloneBatch(b *BatchMachine) *BatchMachine {
	c := NewBatchMachine(len(b.Tiles), b.rows, b.cols)
	for ti, t := range b.Tiles {
		copy(c.Tiles[ti].lanes, t.lanes)
		c.Tiles[ti].active, c.Tiles[ti].end = t.active, t.end
	}
	copy(c.Buffer, b.Buffer)
	return c
}

// TestBoundedReplayMatchesFull: for random programs and a random live
// bound, a column-local program's bounded replay leaves every column
// below live (cells, buffer, activation) as the full replay does and
// every column at or above it as it was; a program with a rotated write
// ignores the bound and reaches the full replay's whole state.
func TestBoundedReplayMatchesFull(t *testing.T) {
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		rotated := randBatchProgram(rng, 48)
		rotated = append(rotated, isa.WriteRot(rng.Intn(batchTestTiles), rng.Intn(batchTestRows), 1+rng.Intn(batchTestCols-1)))
		local := make(isa.Program, len(rotated))
		for i, in := range rotated {
			if in.Kind == isa.KindWrite {
				in = isa.Write(int(in.Tile), int(in.Row))
			}
			local[i] = in
		}
		start := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
		for _, tile := range start.Tiles {
			for i := range tile.lanes {
				tile.lanes[i] = rng.Uint64()
			}
		}
		for c := range start.Buffer {
			start.Buffer[c] = rng.Uint64()
		}
		live := 1 + rng.Intn(batchTestCols)

		for _, tc := range []struct {
			prog  isa.Program
			local bool
		}{{local, true}, {rotated, false}} {
			flat, err := Flatten(tc.prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
			if err != nil {
				t.Fatal(err)
			}
			if flat.ColumnLocal != tc.local {
				t.Fatalf("iter %d: ColumnLocal %v, want %v", iter, flat.ColumnLocal, tc.local)
			}
			full, bounded := cloneBatch(start), cloneBatch(start)
			if err := full.Replay(flat, batchTestCols); err != nil {
				t.Fatal(err)
			}
			if err := bounded.Replay(flat, live); err != nil {
				t.Fatal(err)
			}
			// Columns the bounded replay must agree on with the full one;
			// the rest must be untouched.
			agree := batchTestCols
			if flat.ColumnLocal {
				agree = live
			}
			for ti := range full.Tiles {
				ft, bt, st := full.Tiles[ti], bounded.Tiles[ti], start.Tiles[ti]
				for r := 0; r < batchTestRows; r++ {
					for c := 0; c < batchTestCols; c++ {
						want := ft.CellLanes(r, c)
						if c >= agree {
							want = st.CellLanes(r, c)
						}
						if got := bt.CellLanes(r, c); got != want {
							t.Fatalf("iter %d (local %v, live %d): tile %d cell (%d, %d): %#x, want %#x",
								iter, flat.ColumnLocal, live, ti, r, c, got, want)
						}
					}
				}
				var wantActive []uint16
				for _, c := range ft.ActiveColumns() {
					if int(c) < agree {
						wantActive = append(wantActive, c)
					}
				}
				if !slices.Equal(bt.ActiveColumns(), wantActive) {
					t.Fatalf("iter %d (local %v, live %d): tile %d active %v, want %v",
						iter, flat.ColumnLocal, live, ti, bt.ActiveColumns(), wantActive)
				}
			}
			for c := 0; c < batchTestCols; c++ {
				want := full.Buffer[c]
				if c >= agree {
					want = start.Buffer[c]
				}
				if bounded.Buffer[c] != want {
					t.Fatalf("iter %d (local %v, live %d): buffer column %d: %#x, want %#x",
						iter, flat.ColumnLocal, live, c, bounded.Buffer[c], want)
				}
			}
		}
	}
}

// TestBatchPackUnpackIdentity: LoadLane then StoreLane is the identity
// on a machine's non-volatile state, for every lane count and for every
// lane — the packing layer's round-trip property.
func TestBatchPackUnpackIdentity(t *testing.T) {
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(7))
	for _, lanes := range []int{1, 2, 3, 13, 32, 63, 64} {
		b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
		src := make([]*Machine, lanes)
		for lane := 0; lane < lanes; lane++ {
			m := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
			seedLane(rng, m, nil, 0)
			for i := range m.Buffer {
				m.Buffer[i] = byte(rng.Intn(256))
			}
			// Mask buffer bits beyond the column count, as ReadRow's
			// unpack leaves them zero.
			m.Buffer[len(m.Buffer)-1] &= 1<<(batchTestCols%8) - 1
			src[lane] = m
			if err := b.LoadLane(lane, m); err != nil {
				t.Fatal(err)
			}
		}
		for lane, m := range src {
			requireLaneEqual(t, b, lane, m)
		}
	}
}

// TestBatch64CopiesIdenticalOutputs: a batch of 64 copies of one input
// must produce 64 identical outputs — lanes cannot interfere.
func TestBatch64CopiesIdenticalOutputs(t *testing.T) {
	cfg := mtj.ModernSTT()
	rng := rand.New(rand.NewSource(11))
	prog := randBatchProgram(rng, 40)
	flat, err := Flatten(prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	one := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
	seedLane(rng, one, nil, 0)
	for lane := 0; lane < MaxLanes; lane++ {
		if err := b.LoadLane(lane, one); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Replay(flat, batchTestCols); err != nil {
		t.Fatal(err)
	}
	for _, tile := range b.Tiles {
		for i, w := range tile.lanes {
			if w != 0 && w != ^uint64(0) {
				t.Fatalf("cell %d diverged across identical lanes: %#x", i, w)
			}
		}
	}
	for c, w := range b.Buffer {
		if w != 0 && w != ^uint64(0) {
			t.Fatalf("buffer column %d diverged across identical lanes: %#x", c, w)
		}
	}
}

// TestBatchReplayRejectsWrongGeometry: a program flattened for one
// geometry must not replay on another, nor with a live column bound
// outside the machine.
func TestBatchReplayRejectsWrongGeometry(t *testing.T) {
	cfg := mtj.ModernSTT()
	prog := isa.Program{isa.ActRange(true, 0, 0, 8, 1)}
	flat, err := Flatten(prog, cfg, 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewBatchMachine(1, 8, 16).Replay(flat, 8); err == nil {
		t.Fatal("replay accepted a mismatched geometry")
	}
	if err := NewBatchMachine(2, 8, 8).Replay(flat, 8); err == nil {
		t.Fatal("replay accepted a mismatched tile count")
	}
	for _, live := range []int{0, 9} {
		if err := NewBatchMachine(1, 8, 8).Replay(flat, live); err == nil {
			t.Fatalf("replay accepted live column bound %d", live)
		}
	}
}

// TestFlattenRejectsInvalidPrograms: flattening performs the scalar
// path's validation once, at compile time.
func TestFlattenRejectsInvalidPrograms(t *testing.T) {
	cfg := mtj.ModernSTT()
	cases := []struct {
		name string
		prog isa.Program
	}{
		{"row out of range", isa.Program{isa.Read(0, 12)}},
		{"tile out of range", isa.Program{isa.Read(3, 0)}},
		{"parity violation", isa.Program{{Kind: isa.KindLogic, Gate: mtj.NAND2, In: [3]uint16{1, 3}, Out: 5}}},
		{"act tile out of range", isa.Program{isa.ActList(false, 2, []uint16{0})}},
	}
	for _, tc := range cases {
		if _, err := Flatten(tc.prog, cfg, 2, 8, 8); err == nil {
			t.Errorf("%s: flatten accepted the program", tc.name)
		}
	}
}

// TestReplayKernelsMatchScalar: every gate under every electrical
// configuration (the scalar path solves each configuration's resistor
// network; the kernels run the gate's switch function), unfused or
// fused after a P or an AP preset, over an active set of one run, of
// several runs, or of one run clipped by the live bound, leaves the same
// lanes, buffer and latch as 64 scalar runs on the resistor-network
// path: 12 gates x 3 configurations x 3 fusions x 3 active sets = 324
// cases. Columns at or above live must keep their initial cells and
// buffer.
func TestReplayKernelsMatchScalar(t *testing.T) {
	const out = 6
	ins := []int{1, 3, 5}
	acts := []struct {
		name string
		act  isa.Instruction
		live int
	}{
		{"one run", isa.ActRange(true, 0, 3, 40, 1), batchTestCols},
		{"several runs", isa.ActList(false, 1, []uint16{69, 1, 33, 2, 9}), batchTestCols},
		{"run clipped by live", isa.ActRange(true, 0, 5, 60, 1), 37},
	}
	fuses := []struct {
		name   string
		preset []isa.Instruction
	}{
		{"unfused", nil},
		{"fused after P", []isa.Instruction{isa.Preset(out, mtj.P)}},
		{"fused after AP", []isa.Instruction{isa.Preset(out, mtj.AP)}},
	}
	rng := rand.New(rand.NewSource(25))
	for _, cfg := range []*mtj.Config{mtj.ModernSTT(), mtj.ProjectedSTT(), mtj.ProjectedSHE()} {
		for g := mtj.GateKind(0); int(g) < mtj.NumGates; g++ {
			for _, fu := range fuses {
				for _, ac := range acts {
					name := cfg.Name + "/" + g.String() + "/" + fu.name + "/" + ac.name
					prog := isa.Program{ac.act}
					prog = append(prog, fu.preset...)
					prog = append(prog, isa.Logic(g, ins[:mtj.Spec(g).Inputs], out), isa.Read(1, out))
					checkKernelCase(t, name, rng, cfg, prog, ac.live)
				}
			}
		}
	}
}

// checkKernelCase replays prog once over 64 random lanes bounded at
// live and compares each lane with its scalar run: below live every
// cell, buffer bit and latched column must match, and at or above it
// the lane must keep its initial cells and buffer.
func checkKernelCase(t *testing.T, name string, rng *rand.Rand, cfg *mtj.Config, prog isa.Program, live int) {
	t.Helper()
	flat, err := Flatten(prog, cfg, batchTestTiles, batchTestRows, batchTestCols)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	for _, tile := range b.Tiles {
		for i := range tile.lanes {
			tile.lanes[i] = rng.Uint64()
		}
	}
	for c := range b.Buffer {
		b.Buffer[c] = rng.Uint64()
	}
	start := cloneBatch(b)

	// want holds the 64 scalar runs, packed back into lanes.
	want := NewBatchMachine(batchTestTiles, batchTestRows, batchTestCols)
	var latch [][]int
	for lane := 0; lane < MaxLanes; lane++ {
		m := NewMachine(cfg, batchTestTiles, batchTestRows, batchTestCols)
		m.ForceScalar = true
		if err := b.StoreLane(lane, m); err != nil {
			t.Fatal(err)
		}
		for i, in := range prog {
			if err := m.Exec(in); err != nil {
				t.Fatalf("%s: lane %d: instruction %d: %v", name, lane, i, err)
			}
		}
		if err := want.LoadLane(lane, m); err != nil {
			t.Fatal(err)
		}
		if lane == 0 {
			for _, tile := range m.Tiles {
				latch = append(latch, tile.ActiveColumns())
			}
		}
	}

	if err := b.Replay(flat, live); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for ti, gt := range b.Tiles {
		for r := 0; r < batchTestRows; r++ {
			for c := 0; c < batchTestCols; c++ {
				w := want.Tiles[ti].CellLanes(r, c)
				if c >= live {
					w = start.Tiles[ti].CellLanes(r, c)
				}
				if g := gt.CellLanes(r, c); g != w {
					t.Fatalf("%s: tile %d cell (%d, %d): batched %#x, want %#x", name, ti, r, c, g, w)
				}
			}
		}
		var wantActive []uint16
		for _, c := range latch[ti] {
			if c < live {
				wantActive = append(wantActive, uint16(c))
			}
		}
		if !slices.Equal(gt.ActiveColumns(), wantActive) {
			t.Fatalf("%s: tile %d active %v, want %v", name, ti, gt.ActiveColumns(), wantActive)
		}
	}
	for c, g := range b.Buffer {
		w := want.Buffer[c]
		if c >= live {
			w = start.Buffer[c]
		}
		if g != w {
			t.Fatalf("%s: buffer column %d: batched %#x, want %#x", name, c, g, w)
		}
	}
}
