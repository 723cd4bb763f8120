package workload

import (
	"math/rand"
	"testing"

	"mouse/internal/array"
	"mouse/internal/controller"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
)

// TestHotBatchesMatchSequential: every registry entry's batched
// classifier must agree label-for-label with its sequential reference
// on a capacity-spanning sample pool, including across back-to-back
// batches on the same engine.
func TestHotBatchesMatchSequential(t *testing.T) {
	for _, hb := range HotBatches() {
		hb := hb
		t.Run(hb.Name, func(t *testing.T) {
			if hb.Capacity <= 0 || hb.LaneWidth <= 0 || hb.Capacity%hb.LaneWidth != 0 {
				t.Fatalf("degenerate shape: capacity %d, lane width %d", hb.Capacity, hb.LaneWidth)
			}
			batched, err := hb.NewBatched()
			if err != nil {
				t.Fatal(err)
			}
			sequential, err := hb.NewSequential()
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: catches state leaking between replays.
			for round := 0; round < 2; round++ {
				n := 2*hb.LaneWidth + 1
				if n > hb.Capacity {
					n = hb.Capacity
				}
				samples := hb.Samples(n)
				if len(samples) != n {
					t.Fatalf("round %d: got %d samples, want %d", round, len(samples), n)
				}
				got, err := batched(samples)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sequential(samples)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n || len(want) != n {
					t.Fatalf("round %d: %d batched / %d sequential labels, want %d", round, len(got), len(want), n)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d sample %d: batched class %d, sequential %d", round, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestHotBatchByName: lookup resolves registry names and rejects
// unknown ones.
func TestHotBatchByName(t *testing.T) {
	for _, hb := range HotBatches() {
		got, err := HotBatchByName(hb.Name)
		if err != nil || got.Name != hb.Name {
			t.Fatalf("lookup %q: %v %v", hb.Name, got.Name, err)
		}
	}
	if _, err := HotBatchByName("nope"); err == nil {
		t.Fatal("unknown hot batch accepted")
	}
}

// TestHotBatchPrice: a batch of n samples is priced as ceil(n/LaneWidth)
// passes, each the continuous-power compute plus backup energy of one
// MachineRunner pass of the mapping's program on the mapping's machine.
func TestHotBatchPrice(t *testing.T) {
	_, svmMp, err := svmHotModel()
	if err != nil {
		t.Fatal(err)
	}
	_, _, bnnMp, err := bnnHotModel()
	if err != nil {
		t.Fatal(err)
	}
	machines := map[string]struct {
		prog isa.Program
		m    *array.Machine
	}{
		"svm-adult":    {svmMp.Prog, svmMp.NewMachine(mtj.ModernSTT(), 1024)},
		"bnn-hidden16": {bnnMp.Prog, bnnMp.NewMachine(mtj.ModernSTT(), 1024)},
	}
	for _, hb := range HotBatches() {
		mc, ok := machines[hb.Name]
		if !ok {
			t.Fatalf("%s: no reference machine", hb.Name)
		}
		res, err := sim.NewMachineRunner(controller.New(controller.ProgramStore(mc.prog), mc.m)).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		pass := res.ComputeEnergy + res.BackupEnergy
		t.Logf("%s: %.4g J per pass", hb.Name, pass)
		for _, n := range []int{1, hb.LaneWidth, hb.LaneWidth + 1, hb.Capacity} {
			got, err := hb.Price(n)
			if err != nil {
				t.Fatal(err)
			}
			passes := (n + hb.LaneWidth - 1) / hb.LaneWidth
			if want := float64(passes) * pass; got != want {
				t.Errorf("%s: Price(%d) = %g J, want %d passes x %g J = %g J", hb.Name, n, got, passes, pass, want)
			}
		}
	}
}

// TestHotBatchColumnLocal: Flatten marks the column-batched BNN program
// column-local, so its replay is bounded to the columns a batch fills,
// and the SV-parallel SVM program not, because its reduction tree
// rotates partial sums across columns.
func TestHotBatchColumnLocal(t *testing.T) {
	_, _, bnnMp, err := bnnHotModel()
	if err != nil {
		t.Fatal(err)
	}
	_, svmMp, err := svmHotModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		prog  isa.Program
		cols  int
		local bool
	}{
		{"bnn-hidden16", bnnMp.Prog, bnnMp.Columns, true},
		{"svm-adult", svmMp.Prog, svmMp.Columns, false},
	} {
		flat, err := array.Flatten(tc.prog, mtj.ModernSTT(), 1, 1024, tc.cols)
		if err != nil {
			t.Fatal(err)
		}
		if flat.ColumnLocal != tc.local {
			t.Errorf("%s: ColumnLocal %v, want %v", tc.name, flat.ColumnLocal, tc.local)
		}
	}
}

// TestFlattenFusesPresets: Flatten folds each preset that directly
// precedes a gate writing the same row into that gate, and nothing
// else. The hot programs preset every gate's output just before the
// gate, so each loses one op per gate: svm-adult 62,147 instructions
// (36,963 presets, 24,768 gates) flatten to 37,379 ops and bnn-hidden16
// 33,755 (16,949 presets, 16,805 gates) to 16,950. A preset followed by
// an ACT, a read, or a gate on another row stays its own op.
func TestFlattenFusesPresets(t *testing.T) {
	_, _, bnnMp, err := bnnHotModel()
	if err != nil {
		t.Fatal(err)
	}
	_, svmMp, err := svmHotModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		prog      isa.Program
		cols      int
		instrs, n int
	}{
		{"svm-adult", svmMp.Prog, svmMp.Columns, 62147, 37379},
		{"bnn-hidden16", bnnMp.Prog, bnnMp.Columns, 33755, 16950},
	} {
		if len(tc.prog) != tc.instrs {
			t.Fatalf("%s: %d instructions, want %d", tc.name, len(tc.prog), tc.instrs)
		}
		flat, err := array.Flatten(tc.prog, mtj.ModernSTT(), 1, 1024, tc.cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(flat.Ops) != tc.n {
			t.Errorf("%s: %d flat ops, want %d", tc.name, len(flat.Ops), tc.n)
		}
	}

	act := isa.ActRange(true, 0, 0, 8, 1)
	nand := isa.Logic(mtj.NAND2, []int{1, 3}, 2)
	for _, tc := range []struct {
		name  string
		prog  isa.Program
		fused bool
	}{
		{"gate on the preset row", isa.Program{act, isa.Preset(2, mtj.P), nand}, true},
		{"ACT between", isa.Program{act, isa.Preset(2, mtj.P), act, nand}, false},
		{"read between", isa.Program{act, isa.Preset(2, mtj.P), isa.Read(0, 2), nand}, false},
		{"gate on another row", isa.Program{act, isa.Preset(4, mtj.P), nand}, false},
	} {
		flat, err := array.Flatten(tc.prog, mtj.ModernSTT(), 1, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := len(tc.prog)
		if tc.fused {
			want--
		}
		if len(flat.Ops) != want {
			t.Errorf("%s: %d flat ops, want %d", tc.name, len(flat.Ops), want)
		}
	}
}

// TestHotBNNFills: one reused bnn-hidden16 classifier labels batches at
// the fills around its lane and column boundaries — small batches after
// full ones, so stale columns and lanes are in play — exactly like the
// sequential controller path. Each batch is shuffled so a misplaced
// sample reads another sample's label.
func TestHotBNNFills(t *testing.T) {
	hb, err := HotBatchByName("bnn-hidden16")
	if err != nil {
		t.Fatal(err)
	}
	batched, err := hb.NewBatched()
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := hb.NewSequential()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4096, 1, 65, 4095, 8, 64, 63} {
		samples := hb.Samples(n)
		rng.Shuffle(n, func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		got, err := batched(samples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sequential(samples)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fill %d sample %d: batched class %d, sequential %d", n, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkHotProgramStream times one pass of each hot mapping's program
// stream under a constant 1 mW source on ModernSTT's buffer, on the
// segment engine and on the stepping engine, and the segment engine's
// precosting alone. A program stream holds about one run-length run per
// op (svm-adult: 50,016 runs of 11 distinct ops), so per-run costs that
// the Fig. 9 phase streams amortize over long runs show here.
func BenchmarkHotProgramStream(b *testing.B) {
	_, svmMp, err := svmHotModel()
	if err != nil {
		b.Fatal(err)
	}
	_, _, bnnMp, err := bnnHotModel()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtj.ModernSTT()
	m := energy.NewModel(cfg)
	for _, tc := range []struct {
		name string
		prog isa.Program
	}{
		{"svm-adult", svmMp.Prog},
		{"bnn-hidden16", bnnMp.Prog},
	} {
		s := sim.StreamFromProgram(tc.prog, 1)
		for _, stepping := range []bool{false, true} {
			name := tc.name + "/segment"
			if stepping {
				name = tc.name + "/stepping"
			}
			b.Run(name, func(b *testing.B) {
				r := sim.NewRunner(m)
				r.ForceStepping = stepping
				for i := 0; i < b.N; i++ {
					h := power.NewHarvester(power.Constant{W: 1e-3}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
					if _, err := r.Run(s, h); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(tc.name+"/precost", func(b *testing.B) {
			runs := s.(sim.RunStream).Runs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				energy.PrecostRuns(m, runs)
			}
		})
	}
}
