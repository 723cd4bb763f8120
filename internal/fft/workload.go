package fft

import (
	"fmt"

	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/sim"
)

// Paper-scale FFT workload (Section X's related-work comparison): a
// CRAFFT-style mapping runs every butterfly of a stage in its own
// column simultaneously — N/2-way parallelism — and exchanges operands
// between stages through rotated row moves. The per-butterfly gate
// count is measured by compiling one with the real compiler.

// Ops returns the analytic instruction stream of one N-point transform.
func Ops(p Params) ([]energy.Op, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bfGates, err := ButterflyGates(p)
	if err != nil {
		return nil, err
	}
	stages := 0
	for v := 1; v < p.N; v <<= 1 {
		stages++
	}
	cols := p.N / 2 // one butterfly per column
	var ops []energy.Op
	ops = append(ops, energy.Op{Kind: isa.KindAct, ActCols: cols})
	for s := 0; s < stages; s++ {
		// Butterflies of this stage, all columns at once.
		for g := 0; g < bfGates; g++ {
			ops = append(ops,
				energy.Op{Kind: isa.KindPreset, ActivePairs: cols},
				energy.Op{Kind: isa.KindLogic, Gate: mtj.MAJ3, ActivePairs: cols})
		}
		// Inter-stage exchange: each column hands one complex operand
		// (2×Width bits) to its partner via read + rotated write.
		if s < stages-1 {
			moves := 2 * p.Width * ((cols + isa.Cols - 1) / isa.Cols)
			for mv := 0; mv < moves; mv++ {
				ops = append(ops,
					energy.Op{Kind: isa.KindRead},
					energy.Op{Kind: isa.KindWrite})
			}
		}
	}
	return ops, nil
}

// Stream returns the workload as a stream, encoded once here.
func Stream(p Params) (sim.RunStream, error) {
	ops, err := Ops(p)
	if err != nil {
		return nil, err
	}
	return sim.StreamOf(ops), nil
}

// Reference latencies from the paper's Section X, in seconds.
const (
	// NVPLatency is the THU1010N non-volatile processor's MiBench FFT
	// time [57].
	NVPLatency = 4.2e-3
	// CRAFFTLatency is the best CRAM FFT latency reported by [19] for a
	// similarly sized problem.
	CRAFFTLatency = 1.63e-3
)

// MiBenchParams is the 1024-point transform used for the comparison.
func MiBenchParams() Params { return Params{N: 1024, Width: 16, Frac: 8} }

func (p Params) String() string {
	return fmt.Sprintf("%d-point Q%d.%d", p.N, p.Width-p.Frac, p.Frac)
}
