package energy

// Run-length precosting for the analytic segment engine (internal/sim).
// Paper-scale instruction streams are phase-structured: hundreds of
// thousands of operations, but only a few thousand maximal runs of
// identical operations. Pricing the model once per run instead of once
// per instruction (let alone the stepping path's several calls per
// retired instruction) turns the per-op model cost into a table lookup.

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
	// Runs is the compacted encoding: empty runs dropped, adjacent
	// equal-operation runs merged.
	Runs []OpRun

	// Compute and Backup are each run's per-operation Energy and Backup
	// prices; Total[i] = Compute[i] + Backup[i] is the per-cycle draw
	// the harvester sees, with the same float association the stepping
	// path uses (e := Energy(op) + Backup(op)).
	Compute, Backup, Total []float64

	// Level is each run's converter level (Model.Level).
	Level []int
}

// PrecostRuns prices a run-length encoded stream under m. Runs with
// non-positive counts are dropped and adjacent runs of the same
// operation merge, so the tables are as small as the stream allows.
func PrecostRuns(m *Model, runs []OpRun) *RunCosts {
	c := &RunCosts{}
	for _, r := range runs {
		if r.Count <= 0 {
			continue
		}
		if n := len(c.Runs); n > 0 && c.Runs[n-1].Op == r.Op {
			c.Runs[n-1].Count += r.Count
			continue
		}
		c.Runs = append(c.Runs, r)
	}
	n := len(c.Runs)
	c.Compute = make([]float64, n)
	c.Backup = make([]float64, n)
	c.Total = make([]float64, n)
	c.Level = make([]int, n)
	for i, r := range c.Runs {
		c.Compute[i] = m.Energy(r.Op)
		c.Backup[i] = m.Backup(r.Op)
		c.Total[i] = c.Compute[i] + c.Backup[i]
		c.Level[i] = m.Level(r.Op)
	}
	return c
}
