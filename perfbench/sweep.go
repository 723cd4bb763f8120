package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mouse/internal/baseline"
	"mouse/internal/bench"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// The simulation side: the paper's Fig. 9 grid (6 MOUSE benchmarks and
// 2 SONIC baselines at 8 harvested powers, 64 points) computed
// in-process, once by the analytic segment engine (no observer) and once
// by the stepping engine under a probe.Stats observer.

// fig9Expected holds the ModernSTT rows of the fig9 experiment in
// BENCH_4.json, the committed report every computed grid must equal.
//
//go:embed fig9_modernstt.json
var fig9Expected []byte

// unobservedPerPass is the number of unobserved grids per timed pass:
// about a CPU second of work, so a pass's CPU time is steady.
const unobservedPerPass = 10

func expectedFig9() ([]bench.Fig9Point, error) {
	var pts []bench.Fig9Point
	if err := json.Unmarshal(fig9Expected, &pts); err != nil {
		return nil, fmt.Errorf("fig9 reference: %w", err)
	}
	return pts, nil
}

// checkGrid compares a computed grid with the reference point by point.
func checkGrid(got, want []bench.Fig9Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("grid has %d points, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("point %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// sweepStats is the outcome of a number of sweep rounds.
type sweepStats struct {
	unobserved []float64 // unobserved grids per CPU second, one per pass
	observed   []float64 // observed grids per CPU second, one per pass
	attempted  int       // grids computed
	failed     int       // grids that errored or differed from the reference
	firstErr   error
}

// round runs one unobserved pass (unobservedPerPass grids on workers
// workers) and one observed pass (one grid), timing each in CPU seconds
// of this process.
func (st *sweepStats) round(workers int, want []bench.Fig9Point, tr *tracer, parent int) {
	cfg := mtj.ModernSTT()
	grid := func(name string, workers int, obs ...probe.Observer) {
		sp := tr.begin(name, parent, -1)
		pts, err := bench.ComputeFig9(cfg, bench.Powers(), workers, obs...)
		tr.end(sp)
		st.attempted++
		if err == nil {
			err = checkGrid(pts, want)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	c0 := selfCPU()
	for i := 0; i < unobservedPerPass; i++ {
		grid("bench.fig9", workers)
	}
	st.unobserved = append(st.unobserved, unobservedPerPass/(selfCPU()-c0))
	// One worker: with several, the shared observer's atomic counters
	// bounce between cores, and that contention (not the stepping engine
	// or the probe layer) dominates the pass and swings with how often
	// the workers happen to be co-scheduled.
	c0 = selfCPU()
	grid("bench.fig9_observed", 1, &probe.Stats{})
	st.observed = append(st.observed, 1/(selfCPU()-c0))
}

// coldFlag makes the benchmark binary a cold-start probe: it runs one
// lazily cached set-up step in a fresh process and prints the CPU
// seconds it took. "phases" compiles the phase list of every Fig. 9
// benchmark; "compile" builds each served model's batched classifier,
// training included.
const coldFlag = "cold"

func coldChild(kind string) error {
	c0 := selfCPU()
	switch kind {
	case "phases":
		fillPhases()
	case "compile":
		for _, name := range models {
			hb, err := workload.HotBatchByName(name)
			if err != nil {
				return err
			}
			if _, err := hb.NewBatched(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown cold step %q", kind)
	}
	fmt.Println(selfCPU() - c0)
	return nil
}

// cold runs n fresh processes of the named cold step and returns their
// CPU seconds.
func cold(kind string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		b, err := exec.Command(self, "-"+coldFlag, kind).Output()
		if err != nil {
			return nil, fmt.Errorf("cold %s child: %w", kind, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("cold %s child output: %w", kind, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// simLayers times each simulation layer on the Fig. 9 grid, sequentially
// on one goroutine: precosting, the segment engine, the stepping engine,
// the probe observer on top of stepping, and the SONIC baselines. It
// also returns the grid's instruction and restart counts, which must
// repeat exactly from run to run.
func simLayers(tr *tracer, parent int) (map[string]float64, error) {
	cfg := mtj.ModernSTT()
	specs := workload.Benchmarks()
	out := map[string]float64{}

	timed := func(name string, f func() error) error {
		sp := tr.begin(name, parent, -1)
		start := time.Now()
		err := f()
		out[name+"_ms"] = ms(time.Since(start))
		tr.end(sp)
		return err
	}

	if err := timed("energy.precost", func() error {
		m := energy.NewModel(cfg)
		for _, s := range specs {
			rs, ok := s.Stream().(sim.RunStream)
			if !ok {
				return fmt.Errorf("%s: stream has no runs", s.Name)
			}
			energy.PrecostRuns(m, rs.Runs())
		}
		return nil
	}); err != nil {
		return nil, err
	}

	var instr, restarts [3]uint64
	runAll := func(k int, setup func(r *sim.Runner)) error {
		for _, s := range specs {
			for _, p := range bench.Powers() {
				r := sim.NewRunner(energy.NewModel(cfg))
				setup(r)
				h := power.NewHarvester(power.Constant{W: p}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				res, err := r.Run(s.Stream(), h)
				if err != nil {
					return fmt.Errorf("%s at %g W: %w", s.Name, p, err)
				}
				instr[k] += res.Instructions
				restarts[k] += res.Restarts
			}
		}
		return nil
	}
	if err := timed("sim.segment", func() error { return runAll(0, func(*sim.Runner) {}) }); err != nil {
		return nil, err
	}
	if err := timed("sim.stepping", func() error {
		return runAll(1, func(r *sim.Runner) { r.ForceStepping = true })
	}); err != nil {
		return nil, err
	}
	if err := timed("probe.observed", func() error {
		return runAll(2, func(r *sim.Runner) { r.Obs = &probe.Stats{} })
	}); err != nil {
		return nil, err
	}
	if instr[0] != instr[1] || instr[0] != instr[2] || restarts[0] != restarts[1] || restarts[0] != restarts[2] {
		return nil, fmt.Errorf("engines disagree: instructions %v, restarts %v", instr, restarts)
	}
	out["probe.observer_ms"] = out["probe.observed_ms"] - out["sim.stepping_ms"]
	delete(out, "probe.observed_ms")
	out["sim.instructions"] = float64(instr[0])
	out["sim.restarts"] = float64(restarts[0])

	if err := timed("baseline.sonic", func() error {
		for _, mk := range []func() *baseline.SONIC{baseline.SONICMNIST, baseline.SONICHAR} {
			for _, p := range bench.Powers() {
				if _, err := mk().Run(power.Constant{W: p}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
