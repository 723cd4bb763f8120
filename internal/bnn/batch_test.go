package bnn

import (
	"math/rand"
	"testing"

	"mouse/internal/dataset"
	"mouse/internal/mtj"
)

// TestBNNBatchMatchesSequential: the lane-sliced engine must classify
// exactly like the sequential column-batch path, including when the
// sample count spills across lanes and leaves the last lane partially
// filled, and across back-to-back batches on the unreset arena.
func TestBNNBatchMatchesSequential(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := tinyBinSet(43, 16, 3, 30)
	net, err := Train(ds, tinyConfig(16, 3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	const cols = 4
	mp, err := CompileMapping(net, 1024, cols)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Capacity() != cols*64 {
		t.Fatalf("capacity %d, want %d", eng.Capacity(), cols*64)
	}
	mach := mp.NewMachine(cfg, 1024)

	var pool [][]int
	for i := 0; len(pool) < 90; i++ {
		pool = append(pool, ds.Test[i%len(ds.Test)].X)
	}
	next := 0
	// 1 (single sample), cols (one full lane), cols+1 and 2·cols+3
	// (partial last lane), 64 (many lanes).
	for _, size := range []int{1, cols, cols + 1, 2*cols + 3, 64} {
		batch := pool[next : next+size]
		next += size
		got, err := eng.ClassifyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		// Sequential reference: the existing column-batch path, cols
		// samples per controller run.
		for start := 0; start < len(batch); start += cols {
			end := start + cols
			if end > len(batch) {
				end = len(batch)
			}
			want, err := mp.ClassifyBatch(mach, net, batch[start:end])
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if got[start+i] != w {
					t.Fatalf("batch %d sample %d: batched class %d, sequential %d", size, start+i, got[start+i], w)
				}
			}
		}
		// And directly against the golden network model.
		for i, x := range batch {
			scores := net.Scores(x)
			best := 0
			for c, s := range scores {
				if c == 0 || s > scores[best] {
					best = c
				}
			}
			if got[i] != best {
				t.Fatalf("batch %d sample %d: batched class %d, golden %d", size, i, got[i], best)
			}
		}
	}
}

// TestBNNBatch8BitInputs covers the word-per-feature loading path (the
// FP-BNN 8-bit first layer).
func TestBNNBatch8BitInputs(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := dataset.Adult(47, 120, 30)
	netCfg := Config{Name: "t8", In: 15, Hidden: []int{8}, Out: 2, InputBits: 8}
	net, err := Train(ds, netCfg, TrainConfig{Epochs: 8, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const cols = 3
	mp, err := CompileMapping(net, 1024, cols)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	samples := make([][]int, 10)
	for i := range samples {
		samples[i] = ds.Test[i%len(ds.Test)].X
	}
	got, err := eng.ClassifyBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(samples); start += cols {
		end := start + cols
		if end > len(samples) {
			end = len(samples)
		}
		want, err := mp.ClassifyBatch(mach, net, samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got[start+i] != w {
				t.Fatalf("sample %d: batched class %d, sequential %d", start+i, got[start+i], w)
			}
		}
	}
}

// requireEveryFill reuses one engine for every fill n = 1..Capacity in
// a shuffled order, so small batches follow large ones and replay over
// columns and lanes a larger batch left dirty. Each batch draws its
// samples at random from pool; every label must equal that sample's
// label on the sequential controller path and under the golden network
// model. Columns of the controller path are independent, so the
// sequential labels are computed once per pool sample, Columns samples
// per controller run.
func requireEveryFill(t *testing.T, mp *Mapping, net *Network, pool [][]int, seed int64) {
	t.Helper()
	cfg := mtj.ModernSTT()
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	mach := mp.NewMachine(cfg, 1024)
	want := make([]int, 0, len(pool))
	for start := 0; start < len(pool); start += mp.Columns {
		got, err := mp.ClassifyBatch(mach, net, pool[start:min(start+mp.Columns, len(pool))])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, got...)
	}
	for i, x := range pool {
		scores := net.Scores(x)
		best := 0
		for c, s := range scores {
			if c == 0 || s > scores[best] {
				best = c
			}
		}
		if want[i] != best {
			t.Fatalf("pool sample %d: sequential class %d, golden %d", i, want[i], best)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	dst := make([]int, eng.Capacity())
	batch := make([][]int, eng.Capacity())
	idx := make([]int, eng.Capacity())
	for _, n := range rng.Perm(eng.Capacity()) {
		n++
		for i := 0; i < n; i++ {
			idx[i] = rng.Intn(len(pool))
			batch[i] = pool[idx[i]]
		}
		if err := eng.ClassifyBatchInto(dst[:n], batch[:n]); err != nil {
			t.Fatalf("fill %d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if dst[i] != want[idx[i]] {
				t.Fatalf("fill %d sample %d: batched class %d, sequential and golden %d", n, i, dst[i], want[idx[i]])
			}
		}
	}
}

// TestBNNBatchEveryFill: the lane-major engine with its live-column
// bound classifies every fill of a small-column mapping exactly like the
// sequential path, on the binarized and the 8-bit input path.
func TestBNNBatchEveryFill(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		ds := tinyBinSet(43, 16, 3, 30)
		net, err := Train(ds, tinyConfig(16, 3), DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		mp, err := CompileMapping(net, 1024, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		pool := make([][]int, 4*64)
		for i := range pool {
			pool[i] = make([]int, 16)
			for j := range pool[i] {
				pool[i][j] = rng.Intn(2)
			}
		}
		requireEveryFill(t, mp, net, pool, 6)
	})
	t.Run("8-bit", func(t *testing.T) {
		ds := dataset.Adult(47, 120, 30)
		netCfg := Config{Name: "t8", In: 15, Hidden: []int{8}, Out: 2, InputBits: 8}
		net, err := Train(ds, netCfg, TrainConfig{Epochs: 8, LR: 0.01, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		mp, err := CompileMapping(net, 1024, 3)
		if err != nil {
			t.Fatal(err)
		}
		var pool [][]int
		for _, set := range [][]dataset.Sample{ds.Train, ds.Test} {
			for _, smp := range set {
				pool = append(pool, smp.X)
			}
		}
		requireEveryFill(t, mp, net, pool, 7)
	})
}

// TestBNNBatchValidatesInput: shape errors are caught before replay.
func TestBNNBatchValidatesInput(t *testing.T) {
	cfg := mtj.ModernSTT()
	ds := tinyBinSet(49, 16, 3, 20)
	net, err := Train(ds, tinyConfig(16, 3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	mp, err := CompileMapping(net, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mp.NewBatchEngine(cfg, 1024, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ClassifyBatch(nil); err == nil {
		t.Error("accepted an empty batch")
	}
	if _, err := eng.ClassifyBatch(make([][]int, eng.Capacity()+1)); err == nil {
		t.Error("accepted an oversized batch")
	}
	if _, err := eng.ClassifyBatch([][]int{ds.Test[0].X[:3]}); err == nil {
		t.Error("accepted a short feature vector")
	}
}
