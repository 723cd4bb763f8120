package sim

import (
	"bytes"
	"testing"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// batchWorkload is a small program whose per-lane inputs (tile 0, rows
// 0 and 2) flow through every instruction kind: presets, all gate
// shapes, a buffer read, a rotated cross-tile write, and a narrowing
// activation.
func batchWorkload() BatchWorkload {
	prog := isa.Program{
		isa.ActRange(true, 0, 0, 8, 1),
		isa.Preset(1, mtj.P),
		isa.Logic(mtj.NAND2, []int{0, 2}, 1),
		isa.Preset(3, mtj.AP),
		isa.Logic(mtj.AND2, []int{0, 2}, 3),
		isa.Preset(5, mtj.P),
		isa.Logic(mtj.NOT, []int{2}, 5),
		isa.Read(0, 1),
		isa.WriteRot(1, 9, 3),
		isa.ActList(false, 0, []uint16{2, 5}),
		isa.Preset(7, mtj.P),
		isa.Logic(mtj.NOR2, []int{0, 2}, 7),
	}
	return BatchWorkload{
		Prog:  prog,
		Tiles: 2, Rows: 16, Cols: 8,
		Load: func(lane int, set func(tile, row, col, bit int)) error {
			for c := 0; c < 8; c++ {
				set(0, 0, c, lane>>(c%6)&1)
				set(0, 2, c, (lane+c)&1)
			}
			return nil
		},
	}
}

// sequentialLane runs one lane of the workload on the untouched scalar
// path: fresh machine, loader, controller, MachineRunner.
func sequentialLane(t *testing.T, cfg *mtj.Config, w BatchWorkload, lane int) (Result, *array.Machine) {
	t.Helper()
	m := array.NewMachine(cfg, w.Tiles, w.Rows, w.Cols)
	err := w.Load(lane, func(tile, row, col, bit int) {
		m.Tiles[tile].SetBit(row, col, bit)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewMachineRunner(controller.New(controller.ProgramStore(w.Prog), m)).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

func requireMachinesEqual(t *testing.T, lane int, want, got *array.Machine) {
	t.Helper()
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
	}
	if !bytes.Equal(want.Buffer, got.Buffer) {
		t.Fatalf("lane %d: buffers differ: % x vs % x", lane, want.Buffer, got.Buffer)
	}
}

// TestRunnerBatchMatchesMachineRunner: on the fast path, every lane's
// Result must equal — float for float — a sequential
// MachineRunner.Run(nil) of that lane, and every visited machine must
// be byte-identical to the sequential lane's final state.
func TestRunnerBatchMatchesMachineRunner(t *testing.T) {
	cfg := mtj.ModernSTT()
	w := batchWorkload()
	r, err := NewRunnerBatch(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 2, 17, 64} {
		visited := 0
		results, err := r.Run(lanes, &BatchRun{
			Visit: func(lane int, m *array.Machine) error {
				_, wantM := sequentialLane(t, cfg, w, lane)
				requireMachinesEqual(t, lane, wantM, m)
				visited++
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if visited != lanes || len(results) != lanes {
			t.Fatalf("visited %d lanes, got %d results, want %d", visited, len(results), lanes)
		}
		for lane, res := range results {
			want, _ := sequentialLane(t, cfg, w, lane)
			if res != want {
				t.Fatalf("lane %d: batched result %+v, sequential %+v", lane, res, want)
			}
		}
	}
}

// TestRunnerBatchArenaReuse: back-to-back Runs on the same runner must
// keep producing sequential-identical states (the arena reset restores
// the fresh-machine origin) and identical accounting (the priced base
// is cached).
func TestRunnerBatchArenaReuse(t *testing.T) {
	cfg := mtj.ModernSTT()
	w := batchWorkload()
	r, err := NewRunnerBatch(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var first []Result
	for round := 0; round < 3; round++ {
		results, err := r.Run(64, &BatchRun{
			Visit: func(lane int, m *array.Machine) error {
				_, wantM := sequentialLane(t, cfg, w, lane)
				requireMachinesEqual(t, lane, wantM, m)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = results
			continue
		}
		for lane := range results {
			if results[lane] != first[lane] {
				t.Fatalf("round %d lane %d: result drifted: %+v vs %+v", round, lane, results[lane], first[lane])
			}
		}
	}
}

// TestRunnerBatchLaneBounds: lane counts outside [1, MaxLanes] are
// rejected.
func TestRunnerBatchLaneBounds(t *testing.T) {
	r, err := NewRunnerBatch(mtj.ModernSTT(), batchWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0, nil); err == nil {
		t.Error("accepted 0 lanes")
	}
	if _, err := r.Run(array.MaxLanes+1, nil); err == nil {
		t.Error("accepted too many lanes")
	}
}
