package energy

import (
	"testing"

	"mouse/internal/isa"
	"mouse/internal/mtj"
)

func TestPrecostRunsCompacts(t *testing.T) {
	m := NewModel(mtj.ModernSTT())
	read := Op{Kind: isa.KindRead, ActivePairs: 64}
	write := Op{Kind: isa.KindWrite, ActivePairs: 64}
	c := PrecostRuns(m, []OpRun{
		{Op: read, Count: 3},
		{Op: read, Count: 2},  // merges with previous
		{Op: write, Count: 0}, // dropped
		{Op: write, Count: -1},
		{Op: write, Count: 4},
		{Op: read, Count: 1},
	})
	if len(c.Runs) != 3 {
		t.Fatalf("got %d runs, want 3: %+v", len(c.Runs), c.Runs)
	}
	if c.Runs[0].Count != 5 || c.Runs[1].Count != 4 || c.Runs[2].Count != 1 {
		t.Fatalf("counts = %d,%d,%d, want 5,4,1", c.Runs[0].Count, c.Runs[1].Count, c.Runs[2].Count)
	}
}

// priceSequence revisits every Prices slot non-adjacently and evicts
// each keyed one: one gate at alternating pair counts next to a second
// gate, ACTs at alternating widths, presets at two widths, and a read, a
// write and a fetch-only kind.
func priceSequence() []Op {
	fetchOnly := Op{Kind: isa.KindLogic + 1}
	var ops []Op
	for i := 0; i < 3; i++ {
		for _, w := range []int{512, 64} {
			ops = append(ops,
				Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: w},
				Op{Kind: isa.KindAct, ActCols: w / 4},
				Op{Kind: isa.KindLogic, Gate: mtj.NOR2, ActivePairs: 64},
				Op{Kind: isa.KindPreset, ActivePairs: 2 * w},
				Op{Kind: isa.KindRead, ActivePairs: 64},
				Op{Kind: isa.KindWrite, ActivePairs: 2048},
				fetchOnly,
			)
		}
	}
	return ops
}

// Every table lookup must be the Model's own output, bit for bit, however
// the lookups before it filled and evicted the slots.
func TestPricesAreModelOutputs(t *testing.T) {
	m := NewModel(mtj.ModernSTT())
	p := NewPrices(m)
	for i, op := range priceSequence() {
		got := p.Of(op)
		want := Price{Compute: m.Energy(op), Backup: m.Backup(op), Level: m.Level(op)}
		if got != want {
			t.Fatalf("lookup %d %+v: table %+v, model %+v", i, op, got, want)
		}
	}
}

// Per-run prices must be the Model's own outputs, with Total assembled
// in the same association (compute + backup) the stepping simulator
// uses — bitwise, not approximately — also when the same ops recur in
// runs that are not adjacent.
func TestPrecostPricesAreModelOutputs(t *testing.T) {
	m := NewModel(mtj.ModernSTT())
	ops := priceSequence()
	var runs []OpRun
	for _, op := range ops {
		runs = append(runs, OpRun{Op: op, Count: 7})
	}
	c := PrecostRuns(m, runs)
	if len(c.Runs) != len(ops) {
		t.Fatalf("got %d runs, want %d: adjacent ops are distinct", len(c.Runs), len(ops))
	}
	for i, op := range ops {
		if c.Compute[i] != m.Energy(op) || c.Backup[i] != m.Backup(op) {
			t.Fatalf("run %d: prices diverge from model", i)
		}
		if c.Total[i] != m.Energy(op)+m.Backup(op) {
			t.Fatalf("run %d: Total not compute+backup", i)
		}
		if c.Level[i] != m.Level(op) {
			t.Fatalf("run %d: Level diverges from model", i)
		}
	}
}

func TestPrecostEmpty(t *testing.T) {
	c := PrecostRuns(NewModel(mtj.ModernSTT()), nil)
	if len(c.Runs) != 0 || len(c.Compute) != 0 || len(c.Backup) != 0 || len(c.Total) != 0 || len(c.Level) != 0 {
		t.Fatalf("empty precost not empty: %+v", c)
	}
}
