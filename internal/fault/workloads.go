package fault

import (
	"fmt"

	"mouse/internal/array"
	"mouse/internal/bnn"
	"mouse/internal/compile"
	"mouse/internal/fft"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/svm"
)

// Built-in sweep workloads. Each is deliberately small enough that an
// exhaustive boundary × fraction sweep finishes in seconds, yet real
// enough to exercise every instruction kind, both logic engines, and
// the full dual-PC commit protocol: a multiplier chain (the ≥200
// instruction reference workload), a hand-built two-class SVM using the
// production application mapping, a hand-built BNN with a hidden layer,
// and a 2-point FFT through the production FFT mapping. Models are
// constructed directly — not trained — so every run of every workload
// is bit-deterministic.

// arithRows/arithCols size the multiplier workload's single tile.
const (
	arithRows = 128
	arithCols = 8
)

// Arith is the ≥200-instruction multiplier-chain workload: an 8×8
// multiply whose product feeds a second multiply, plus a row transfer
// through the memory buffer, so the stream covers ACT, preset, logic,
// read, and write kinds. The deployment context (geometry plus
// capacitor) rides into the builder's lint self-check, so the compile
// itself proves the program fits the energy buffer it will be swept
// under.
func Arith(cfg *mtj.Config) (Workload, error) {
	b := compile.NewBuilder(arithRows)
	b.SetCheckContext(compile.CheckContext{Cfg: cfg, Tiles: 1, Rows: arithRows, Cols: arithCols})
	cols := make([]uint16, arithCols)
	for i := range cols {
		cols[i] = uint16(i)
	}
	b.ActivateBroadcast(cols)
	x := b.AllocWord(8, 0)
	y := b.AllocWord(8, 0)
	p := b.MulWords(x, y)
	q := b.MulWords(p[:8], x)
	b.FreeWord(p)
	b.Emit(isa.Read(0, q[0].Row))
	b.Emit(isa.Write(0, q[1].Row))
	prog, err := b.Program()
	if err != nil {
		return Workload{}, fmt.Errorf("fault: compiling arith: %w", err)
	}
	return Workload{
		Name: "arith", Cfg: cfg, Prog: prog,
		Tiles: 1, Rows: arithRows, Cols: arithCols,
		Load: func(m *array.Machine) error {
			for c := 0; c < arithCols; c++ {
				for i, w := range x {
					m.Tiles[0].SetBit(w.Row, c, (c*5+3)>>i&1)
				}
				for i, w := range y {
					m.Tiles[0].SetBit(w.Row, c, (c*7+11)>>i&1)
				}
			}
			return nil
		},
	}, nil
}

// tinySVMModel hand-constructs a two-class, two-feature quantized SVM.
func tinySVMModel() *svm.IntModel {
	return &svm.IntModel{
		Features:  2,
		Classes:   2,
		Shift:     0,
		CoeffBits: 4,
		AccBits:   10,
		Machines: []svm.IntBinary{
			{SV: [][]int{{1, 0}, {0, 1}}, Q: []int64{3, -2}, QBias: 1},
			{SV: [][]int{{1, 1}}, Q: []int64{2}, QBias: -1},
		},
	}
}

// svmRows sizes the SVM workload's tile.
const svmRows = 96

// TinySVM compiles the hand-built SVM through the production
// application mapping and loads a fixed binarized input.
func TinySVM(cfg *mtj.Config) (Workload, error) {
	mp, err := svm.CompileMapping(tinySVMModel(), svmRows, 1)
	if err != nil {
		return Workload{}, fmt.Errorf("fault: compiling tiny-svm: %w", err)
	}
	return Workload{
		Name: "tiny-svm", Cfg: cfg, Prog: mp.Prog,
		Tiles: 1, Rows: svmRows, Cols: arithCols,
		Load: func(m *array.Machine) error {
			input := []int{1, 1}
			for c := 0; c < mp.Columns; c++ {
				for j, rows := range mp.InputRows {
					for i, row := range rows {
						m.Tiles[0].SetBit(row, c, input[j]>>i&1)
					}
				}
			}
			return nil
		},
	}, nil
}

// tinyBNNNetwork hand-constructs a 6-4-2 binarized network with
// deterministic weights and biases.
func tinyBNNNetwork() *bnn.Network {
	n := &bnn.Network{
		Cfg: bnn.Config{Name: "tiny-bnn", In: 6, Hidden: []int{4}, Out: 2, InputBits: 1},
	}
	widths := n.Cfg.Widths()
	for l := 0; l+1 < len(widths); l++ {
		layer := bnn.Layer{
			W:    make([][]uint8, widths[l+1]),
			Bias: make([]int, widths[l+1]),
		}
		for j := range layer.W {
			layer.W[j] = make([]uint8, widths[l])
			for i := range layer.W[j] {
				layer.W[j][i] = uint8((i + j) % 2)
			}
			layer.Bias[j] = j - 1
		}
		n.Layers = append(n.Layers, layer)
	}
	return n
}

// bnnRows/bnnCols size the BNN workload's tile and batch.
const (
	bnnRows = 96
	bnnCols = 4
)

// TinyBNN compiles the hand-built network through the production
// application mapping, one input sample per batch column.
func TinyBNN(cfg *mtj.Config) (Workload, error) {
	mp, err := bnn.CompileMapping(tinyBNNNetwork(), bnnRows, bnnCols)
	if err != nil {
		return Workload{}, fmt.Errorf("fault: compiling tiny-bnn: %w", err)
	}
	return Workload{
		Name: "tiny-bnn", Cfg: cfg, Prog: mp.Prog,
		Tiles: 1, Rows: bnnRows, Cols: arithCols,
		Load: func(m *array.Machine) error {
			for c := 0; c < bnnCols; c++ {
				for i, row := range mp.InputRows {
					m.Tiles[0].SetBit(row, c, (i+c)%2)
				}
			}
			return nil
		},
	}, nil
}

// tinyFFTParams sizes the FFT workload: the smallest legal transform
// (2-point, Q2.2), compiled through the production FFT mapping. Still
// ~800 instructions — every butterfly is unrolled shift-and-add — so
// the sweep covers a long real program without dominating the suite.
func tinyFFTParams() fft.Params { return fft.Params{N: 2, Width: 4, Frac: 2} }

// fftRows/fftCols size the FFT workload's tile and batch.
const (
	fftRows = 64
	fftCols = 2
)

// TinyFFT compiles the 2-point transform through the production FFT
// mapping, one fixed complex signal per batch column.
func TinyFFT(cfg *mtj.Config) (Workload, error) {
	mp, err := fft.Compile(tinyFFTParams(), fftRows, fftCols)
	if err != nil {
		return Workload{}, fmt.Errorf("fault: compiling tiny-fft: %w", err)
	}
	return Workload{
		Name: "tiny-fft", Cfg: cfg, Prog: mp.Prog,
		Tiles: 1, Rows: fftRows, Cols: arithCols,
		Load: func(m *array.Machine) error {
			for c := 0; c < fftCols; c++ {
				for i := range mp.InRe {
					loadRows(m, mp.InRe[i], c, uint64(2*i+c+1))
					loadRows(m, mp.InIm[i], c, uint64(3*i+c))
				}
			}
			return nil
		},
	}, nil
}

// loadRows writes an LSB-first value into one column of the listed rows.
func loadRows(m *array.Machine, rows []int, col int, v uint64) {
	for i, row := range rows {
		m.Tiles[0].SetBit(row, col, int(v>>i)&1)
	}
}

// Workloads builds every built-in workload under cfg.
func Workloads(cfg *mtj.Config) ([]Workload, error) {
	var ws []Workload
	for _, build := range []func(*mtj.Config) (Workload, error){Arith, TinySVM, TinyBNN, TinyFFT} {
		w, err := build(cfg)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// LookupWorkload resolves a CLI workload name.
func LookupWorkload(cfg *mtj.Config, name string) (Workload, error) {
	ws, err := Workloads(cfg)
	if err != nil {
		return Workload{}, err
	}
	var names []string
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("fault: unknown workload %q (have %v)", name, names)
}
