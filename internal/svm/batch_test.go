package svm

import (
	"slices"
	"testing"

	"mouse/internal/mtj"
)

// batchFixture trains and compiles a small SV-parallel model plus a
// pool of input vectors for batching.
func batchFixture(t *testing.T, argmax bool) (*ParallelMapping, *IntModel, [][]int) {
	t.Helper()
	ds := tinySet(91, 6, 4)
	m, err := Train(ds, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Quantize(10)
	if err != nil {
		t.Fatal(err)
	}
	compile := CompileParallelMapping
	if argmax {
		compile = CompileParallelArgmax
	}
	mp, err := compile(im, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	var samples [][]int
	for i := 0; len(samples) < 80; i++ {
		samples = append(samples, ds.Test[i%len(ds.Test)].X)
	}
	return mp, im, samples
}

// TestSVMBatchMatchesSequential: batched classification and scores must
// equal the sequential controller path sample for sample, across batch
// sizes and across back-to-back batches on the same (unreset) arena.
func TestSVMBatchMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	next := 0
	for _, size := range []int{1, 3, 64, 12} {
		batch := samples[next : next+size]
		next += size
		scores, err := eng.ScoresBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ClassifyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range batch {
			wantScores, err := mp.Scores(mach, x)
			if err != nil {
				t.Fatal(err)
			}
			if len(scores[i]) != len(wantScores) {
				t.Fatalf("batch %d sample %d: %d scores, want %d", size, i, len(scores[i]), len(wantScores))
			}
			for c := range wantScores {
				if scores[i][c] != wantScores[c] {
					t.Fatalf("batch %d sample %d class %d: batched score %d, sequential %d",
						size, i, c, scores[i][c], wantScores[c])
				}
			}
			want, err := mp.Classify(mach, x)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("batch %d sample %d: batched class %d, sequential %d", size, i, got[i], want)
			}
		}
	}
}

// TestSVMBatchArgmaxMatchesSequential covers the in-array argmax
// tournament: the winner index extracted per lane must equal the
// sequential Classify answer.
func TestSVMBatchArgmaxMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, true)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	got, err := eng.ClassifyBatch(samples[:32])
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range samples[:32] {
		want, err := mp.Classify(mach, x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("sample %d: batched argmax class %d, sequential %d", i, got[i], want)
		}
	}
}

// TestSVMBatchMatchesGoldenModel pins the batched path directly to the
// fixed-point golden model, independent of the array paths.
func TestSVMBatchMatchesGoldenModel(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, im, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := eng.ScoresBatch(samples[:64])
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range samples[:64] {
		want := im.Scores(x)
		for c := range want {
			if scores[i][c] != want[c] {
				t.Fatalf("sample %d class %d: batched score %d, golden %d", i, c, scores[i][c], want[c])
			}
		}
	}
}

// TestSVMBatchValidatesInput: bad batch shapes are rejected before any
// replay.
func TestSVMBatchValidatesInput(t *testing.T) {
	cfg := mtj.ModernSTT()
	mp, _, samples := batchFixture(t, false)
	eng, err := mp.NewBatchEngine(cfg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyBatch(nil); err == nil {
		t.Error("accepted an empty batch")
	}
	if _, err := eng.ClassifyBatch(make([][]int, 65)); err == nil {
		t.Error("accepted a 65-sample batch")
	}
	if _, err := eng.ClassifyBatch([][]int{samples[0][:2]}); err == nil {
		t.Error("accepted a short feature vector")
	}
	if err := eng.ClassifyBatchInto(make([]int, 1), samples[:2]); err == nil {
		t.Error("accepted a short destination")
	}

	// A short sample late in a batch is rejected before any input row
	// is written: the rows keep the previous batch's bits.
	if err := eng.LoadInputs(samples[:3]); err != nil {
		t.Fatal(err)
	}
	before := inputLanes(eng)
	if err := eng.LoadInputs([][]int{samples[5], samples[6], samples[7][:2]}); err == nil {
		t.Error("LoadInputs accepted a short feature vector")
	}
	if !slices.Equal(inputLanes(eng), before) {
		t.Error("a rejected batch overwrote input rows")
	}
}

// inputLanes returns the lane words of every input-row cell.
func inputLanes(e *BatchEngine) []uint64 {
	var words []uint64
	t := e.arena.Tiles[0]
	for _, rows := range e.m.InputRows {
		for _, row := range rows {
			for col := 0; col < t.Cols(); col++ {
				words = append(words, t.CellLanes(row, col))
			}
		}
	}
	return words
}
