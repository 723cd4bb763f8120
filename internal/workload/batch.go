package workload

import (
	"fmt"
	"sync"

	"mouse/internal/array"
	"mouse/internal/bnn"
	"mouse/internal/controller"
	"mouse/internal/dataset"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/sim"
	"mouse/internal/svm"
)

// The hot-batch registry: the two trained, bit-accurate inference
// workloads the batch throughput experiment replays — the ADULT SVM in
// the SV-parallel mapping and the small binarized network in the
// column-batched BNN mapping, the same recipes as the packed-vs-scalar
// micro-benchmarks next to BENCH_1.json so the ns/inference numbers
// stay comparable across the trajectory. Training and compilation are
// cached process-wide (sync.Once): compile once, replay per batch.

// Classifier labels a batch of samples. Implementations own whatever
// machine state they mutate, so distinct Classifier values may run
// concurrently but a single value must not.
type Classifier func(samples [][]int) ([]int, error)

// HotBatch is one batch-ready inference workload.
type HotBatch struct {
	// Name keys the workload in reports ("svm-adult", "bnn-mnist16").
	Name string

	// Capacity is the most samples one batched replay serves: 64 lanes
	// times the mapping's column batch.
	Capacity int

	// LaneWidth is the mapping's column batch: the samples one
	// sequential controller pass classifies. A batch of L*LaneWidth
	// samples fills L of the SVM's 64 lanes (one sample per lane across
	// every column), and L of the BNN's columns in all 64 lanes (its
	// engine places samples lane-major and replays only filled columns).
	LaneWidth int

	// Samples returns n deterministic input vectors, cycling the
	// workload's held-out split.
	Samples func(n int) [][]int

	// Features returns the input-vector length the mapping expects,
	// training the underlying model on first call — request validation
	// for serving layers, without handing out the mapping itself.
	Features func() (int, error)

	// NewBatched builds a bit-sliced batch classifier (one flat-program
	// replay per call, alloc-free in steady state).
	NewBatched func() (Classifier, error)

	// NewSequential builds the sequential reference: the pre-batch
	// controller path, one MachineRunner pass per LaneWidth samples.
	NewSequential func() (Classifier, error)

	// Price returns the modelled energy of classifying n samples, in
	// joules: ceil(n/LaneWidth) sequential passes, each costing the
	// continuous-power compute plus backup energy of one MachineRunner
	// pass of the mapping's program on an unloaded machine (the data
	// cannot change it; fault.SweepBatch checks that against every
	// lane's golden run). The pass is priced once per process, on first
	// call.
	Price func(n int) (float64, error)
}

// HotBatches returns the registry. The underlying models are trained
// lazily on first use and shared; the returned constructors are safe to
// call from concurrent goroutines and every call yields an independent
// classifier.
func HotBatches() []HotBatch {
	return []HotBatch{hotSVM(), hotBNN()}
}

// HotBatchByName resolves a registry entry.
func HotBatchByName(name string) (HotBatch, error) {
	for _, hb := range HotBatches() {
		if hb.Name == name {
			return hb, nil
		}
	}
	return HotBatch{}, fmt.Errorf("workload: unknown hot batch %q", name)
}

// --- ADULT SVM, SV-parallel mapping (one sample per run, 64 per batch) ---

var svmHot struct {
	once sync.Once
	ds   *dataset.Set
	mp   *svm.ParallelMapping
	err  error
}

func svmHotModel() (*dataset.Set, *svm.ParallelMapping, error) {
	svmHot.once.Do(func() {
		ds := dataset.Adult(77, 24, 10)
		m, err := svm.Train(ds, svm.DefaultTrainConfig())
		if err != nil {
			svmHot.err = err
			return
		}
		im, err := m.Quantize(10)
		if err != nil {
			svmHot.err = err
			return
		}
		mp, err := svm.CompileParallelMapping(im, 1024, 8)
		if err != nil {
			svmHot.err = err
			return
		}
		svmHot.ds, svmHot.mp = ds, mp
	})
	return svmHot.ds, svmHot.mp, svmHot.err
}

func hotSVM() HotBatch {
	return HotBatch{
		Name:      "svm-adult",
		Capacity:  array.MaxLanes,
		LaneWidth: 1,
		Samples: func(n int) [][]int {
			ds, _, err := svmHotModel()
			if err != nil {
				return nil
			}
			return cycleSamples(ds.Test, n)
		},
		Features: func() (int, error) {
			_, mp, err := svmHotModel()
			if err != nil {
				return 0, err
			}
			return mp.Features(), nil
		},
		NewBatched: func() (Classifier, error) {
			_, mp, err := svmHotModel()
			if err != nil {
				return nil, err
			}
			eng, err := mp.NewBatchEngine(mtj.ModernSTT(), 1024)
			if err != nil {
				return nil, err
			}
			return eng.ClassifyBatch, nil
		},
		NewSequential: func() (Classifier, error) {
			_, mp, err := svmHotModel()
			if err != nil {
				return nil, err
			}
			mach := mp.NewMachine(mtj.ModernSTT(), 1024)
			return func(samples [][]int) ([]int, error) {
				out := make([]int, len(samples))
				for i, x := range samples {
					c, err := mp.Classify(mach, x)
					if err != nil {
						return nil, err
					}
					out[i] = c
				}
				return out, nil
			}, nil
		},
		Price: func(n int) (float64, error) {
			return svmPass.price(n, 1, func() (isa.Program, *array.Machine, error) {
				_, mp, err := svmHotModel()
				if err != nil {
					return nil, nil, err
				}
				return mp.Prog, mp.NewMachine(mtj.ModernSTT(), 1024), nil
			})
		},
	}
}

// --- small binarized network, column-batched mapping (64 per run) ---

// bnnHotBatch is the mapping's column batch: 64 samples per controller
// pass sequentially, 64*64 per replay batched (64 lanes in each of 64
// columns).
const bnnHotBatch = 64

var bnnHot struct {
	once sync.Once
	ds   *dataset.Set
	net  *bnn.Network
	mp   *bnn.Mapping
	err  error
}

func bnnHotModel() (*dataset.Set, *bnn.Network, *bnn.Mapping, error) {
	bnnHot.once.Do(func() {
		const feats = 64
		small := &dataset.Set{Name: "hot-bnn", NumFeatures: feats, NumClasses: 10}
		for i := 0; i < 40; i++ {
			x := make([]int, feats)
			for j := range x {
				x[j] = (i*j + j%3) & 1
			}
			small.Train = append(small.Train, dataset.Sample{X: x, Label: i % 10})
		}
		small.Test = small.Train
		cfg := bnn.Config{Name: "hot-bnn", In: feats, Hidden: []int{16}, Out: 10, InputBits: 1}
		net, err := bnn.Train(small, cfg, bnn.TrainConfig{Epochs: 2, LR: 0.002, Seed: 1})
		if err != nil {
			bnnHot.err = err
			return
		}
		mp, err := bnn.CompileMapping(net, 1024, bnnHotBatch)
		if err != nil {
			bnnHot.err = err
			return
		}
		bnnHot.ds, bnnHot.net, bnnHot.mp = small, net, mp
	})
	return bnnHot.ds, bnnHot.net, bnnHot.mp, bnnHot.err
}

func hotBNN() HotBatch {
	return HotBatch{
		Name:      "bnn-hidden16",
		Capacity:  bnnHotBatch * array.MaxLanes,
		LaneWidth: bnnHotBatch,
		Samples: func(n int) [][]int {
			ds, _, _, err := bnnHotModel()
			if err != nil {
				return nil
			}
			return cycleSamples(ds.Test, n)
		},
		Features: func() (int, error) {
			_, _, mp, err := bnnHotModel()
			if err != nil {
				return 0, err
			}
			return mp.Features(), nil
		},
		NewBatched: func() (Classifier, error) {
			_, net, mp, err := bnnHotModel()
			if err != nil {
				return nil, err
			}
			eng, err := mp.NewBatchEngine(mtj.ModernSTT(), 1024, net)
			if err != nil {
				return nil, err
			}
			return eng.ClassifyBatch, nil
		},
		NewSequential: func() (Classifier, error) {
			_, net, mp, err := bnnHotModel()
			if err != nil {
				return nil, err
			}
			mach := mp.NewMachine(mtj.ModernSTT(), 1024)
			return func(samples [][]int) ([]int, error) {
				out := make([]int, 0, len(samples))
				for start := 0; start < len(samples); start += bnnHotBatch {
					end := start + bnnHotBatch
					if end > len(samples) {
						end = len(samples)
					}
					got, err := mp.ClassifyBatch(mach, net, samples[start:end])
					if err != nil {
						return nil, err
					}
					out = append(out, got...)
				}
				return out, nil
			}, nil
		},
		Price: func(n int) (float64, error) {
			return bnnPass.price(n, bnnHotBatch, func() (isa.Program, *array.Machine, error) {
				_, _, mp, err := bnnHotModel()
				if err != nil {
					return nil, nil, err
				}
				return mp.Prog, mp.NewMachine(mtj.ModernSTT(), 1024), nil
			})
		},
	}
}

// passPrice memoizes one hot workload's per-pass energy.
type passPrice struct {
	once sync.Once
	j    float64
	err  error
}

var svmPass, bnnPass passPrice

// price returns the energy of ceil(n/laneWidth) passes, running the
// program that build returns once under continuous power on first call.
func (p *passPrice) price(n, laneWidth int, build func() (isa.Program, *array.Machine, error)) (float64, error) {
	p.once.Do(func() {
		prog, m, err := build()
		if err != nil {
			p.err = err
			return
		}
		res, err := sim.NewMachineRunner(controller.New(controller.ProgramStore(prog), m)).Run(nil)
		p.j, p.err = res.ComputeEnergy+res.BackupEnergy, err
	})
	return float64((n+laneWidth-1)/laneWidth) * p.j, p.err
}

func cycleSamples(pool []dataset.Sample, n int) [][]int {
	if len(pool) == 0 {
		return nil
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = pool[i%len(pool)].X
	}
	return out
}
