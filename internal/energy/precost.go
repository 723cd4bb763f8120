package energy

import (
	"mouse/internal/isa"
	"mouse/internal/mtj"
)

// Per-instruction pricing for the simulator's engines and the static
// verifier. A program prices only a handful of distinct Ops (one per
// gate at the current activation width, plus the memory and ACT
// shapes), but the engines consult the price of every instruction of
// every restart, and paper-scale instruction streams hold hundreds of
// thousands of operations in thousands to tens of thousands of maximal
// runs of identical operations. Prices turns the per-op model cost into a table
// lookup; PrecostRuns prices a run-length encoded stream through it.

// Price is one Op's per-cycle cost under a Model: its Energy, its
// Backup, and its converter Level.
type Price struct {
	Compute, Backup float64
	Level           int
}

// Prices is the per-Op price table of one Model. It is direct-indexed,
// because hashing Ops through a map was itself a hot spot: one slot per
// gate and one for presets, keyed by the pair count; one for ACTs,
// keyed by the width; and one per remaining kind. A lookup that misses
// refills its slot from the Model. Every entry is the Model's own
// output, so accounting stays bit-identical to calling the Model each
// cycle. The Model must not change while the table is in use, and a
// table serves one goroutine.
type Prices struct {
	m *Model

	logic      [mtj.NumGates]Price
	logicPairs [mtj.NumGates]int // -1 = empty

	preset      Price
	presetPairs int // -1 = empty

	act     Price
	actCols int // -1 = empty

	read, write, other       Price
	readOK, writeOK, otherOK bool
}

// NewPrices returns an empty price table over m.
func NewPrices(m *Model) *Prices {
	p := &Prices{m: m, presetPairs: -1, actCols: -1}
	for i := range p.logicPairs {
		p.logicPairs[i] = -1
	}
	return p
}

func (p *Prices) price(op Op) Price {
	return Price{Compute: p.m.Energy(op), Backup: p.m.Backup(op), Level: p.m.Level(op)}
}

// Of returns op's price.
func (p *Prices) Of(op Op) Price {
	switch op.Kind {
	case isa.KindLogic:
		if p.logicPairs[op.Gate] != op.ActivePairs {
			p.logic[op.Gate] = p.price(op)
			p.logicPairs[op.Gate] = op.ActivePairs
		}
		return p.logic[op.Gate]
	case isa.KindPreset:
		if p.presetPairs != op.ActivePairs {
			p.preset = p.price(op)
			p.presetPairs = op.ActivePairs
		}
		return p.preset
	case isa.KindAct:
		if p.actCols != op.ActCols {
			p.act = p.price(op)
			p.actCols = op.ActCols
		}
		return p.act
	case isa.KindRead:
		if !p.readOK {
			p.read = p.price(op)
			p.readOK = true
		}
		return p.read
	case isa.KindWrite:
		if !p.writeOK {
			p.write = p.price(op)
			p.writeOK = true
		}
		return p.write
	default:
		// Every remaining kind prices as fetch-only with the common
		// backup cost and no array bias level.
		if !p.otherOK {
			p.other = p.price(op)
			p.otherOK = true
		}
		return p.other
	}
}

// OpRun is a maximal run of identical operations — the run-length
// encoded form of an instruction stream.
type OpRun struct {
	Op    Op
	Count int64
}

// RunCosts is a stream's fully priced run-length form. Per-run values
// are the Model's own outputs for that run's operation, so accounting
// assembled from them is bit-identical to calling the Model on every
// instruction.
type RunCosts struct {
	// Runs is the encoding the costs price, as PrecostRuns was given
	// it (not a copy).
	Runs []OpRun

	// Compute and Backup are each run's per-operation Energy and Backup
	// prices; Total[i] = Compute[i] + Backup[i] is the per-cycle draw
	// the harvester sees, with the same float association the stepping
	// path uses (e := Energy(op) + Backup(op)).
	Compute, Backup, Total []float64

	// Level is each run's converter level (Model.Level).
	Level []int
}

// PrecostRuns prices a run-length encoded stream under m through a
// Prices table, so the model runs only on a table miss. runs must be
// the compact encoding a sim.RunStream returns (every Count > 0, no two
// adjacent runs equal); the result keeps it as Runs, read-only.
func PrecostRuns(m *Model, runs []OpRun) *RunCosts {
	n := len(runs)
	f := make([]float64, 3*n)
	c := &RunCosts{
		Runs:    runs,
		Compute: f[:n:n], Backup: f[n : 2*n : 2*n], Total: f[2*n:],
		Level: make([]int, n),
	}
	prices := NewPrices(m)
	for i, r := range runs {
		p := prices.Of(r.Op)
		c.Compute[i], c.Backup[i], c.Level[i] = p.Compute, p.Backup, p.Level
		c.Total[i] = p.Compute + p.Backup
	}
	return c
}
