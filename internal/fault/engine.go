package fault

import (
	"fmt"
	"math/rand"
	"time"

	"mouse/internal/bench"
	"mouse/internal/probe"
)

// Options configures a sweep's injection-point enumeration.
type Options struct {
	// Fracs are the intra-instruction µ-phase fractions swept at every
	// selected boundary. Empty selects DefaultFracs.
	Fracs []float64

	// Stride samples every Stride-th instruction boundary (for bounded
	// smoke sweeps over long programs). <= 1 is exhaustive.
	Stride int

	// Random > 0 replaces the systematic grid with a seeded randomized
	// campaign of that many uniformly drawn (index, fraction) points.
	Random int
	Seed   int64

	// Workers bounds the sweep pool; <= 0 selects one worker per CPU,
	// 1 runs serially. Reports are identical at any parallelism.
	Workers int

	// Obs optionally receives every injected run's event stream plus one
	// probe fault event per injection. It is shared across concurrent
	// workers, so it must be concurrency-safe (like probe.Stats).
	Obs probe.Observer
}

// DefaultFracs covers every µ-phase band of the controller cycle: the
// exact boundary, fetch, early/mid/late execute, the ACT register write,
// the PC write, and the PC parity commit (see sim's phaseFor).
func DefaultFracs() []float64 {
	return []float64{0, 0.02, 0.30, 0.60, 0.84, 0.87, 0.92, 0.97}
}

// enumerate builds the injection schedule over n instruction boundaries.
func enumerate(n int, opts Options) []Point {
	if opts.Random > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		pts := make([]Point, opts.Random)
		for i := range pts {
			pts[i] = Point{Index: rng.Intn(n), Frac: rng.Float64()}
		}
		return pts
	}
	fracs := opts.Fracs
	if len(fracs) == 0 {
		fracs = DefaultFracs()
	}
	stride := opts.Stride
	if stride < 1 {
		stride = 1
	}
	pts := make([]Point, 0, (n/stride+1)*len(fracs))
	for k := 0; k < n; k += stride {
		for _, f := range fracs {
			pts = append(pts, Point{Index: k, Frac: f})
		}
	}
	return pts
}

// checkPoint validates a schedule entry against the golden run.
func checkPoint(p Point, g *Golden) error {
	if p.Index < 0 || p.Index >= len(g.Energies) {
		return fmt.Errorf("fault: injection index %d outside program [0, %d)", p.Index, len(g.Energies))
	}
	if p.Frac < 0 || p.Frac >= 1 {
		return fmt.Errorf("fault: injection fraction %g outside [0, 1)", p.Frac)
	}
	return nil
}

// Inject runs one scheduled crash of the workload, on the golden
// reference's layer, and returns its verdict. It is the unit the sweep
// parallelizes — and the entry point for the fuzz harness, which feeds
// it arbitrary points.
func Inject(w Workload, g *Golden, p Point, obs probe.Observer) (Verdict, error) {
	if err := checkPoint(p, g); err != nil {
		return Verdict{}, err
	}
	windowJ := g.windowFor(p)
	inj := NewInjector(windowJ, g.recoverW)
	var o probe.Observer = inj
	if probe.Enabled(obs) {
		o = probe.Multi{inj, obs}
		probe.EmitFault(obs, probe.Fault{Index: p.Index, Frac: p.Frac, WindowJ: windowJ})
	}
	res, snap, runErr := w.run(g.layer, inj.Harvester(), o)
	v := verdictFor(p, windowJ, res, runErr, g)
	if v.Mismatch == "" && g.snap != nil {
		if d := g.snap.diff(snap); d != "" {
			v.Mismatch = d
			v.Equivalent = false
		}
	}
	return v, nil
}

// Sweep crashes the workload on the layer at every scheduled injection
// point and differentially checks each crashed run against one golden
// run.
func Sweep(w Workload, layer string, opts Options) (*Report, error) {
	g, err := RunGolden(w, layer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pts := enumerate(len(g.Energies), opts)
	verdicts, err := bench.Jobs(opts.Workers, len(pts), func(i int) (Verdict, error) {
		return Inject(w, g, pts[i], opts.Obs)
	})
	if err != nil {
		return nil, err
	}
	rep := buildReport(w.Name, layer, g.Result.Instructions, verdicts, opts)
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}
