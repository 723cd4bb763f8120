package sim_test

import (
	"fmt"
	"sync"
	"testing"

	"mouse/internal/energy"
	"mouse/internal/fault"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// TestSharedStreamConcurrentRuns runs one stream value from several
// goroutines at once, through Run on the segment engine, RunSweep and
// Run with ForceStepping, and requires every Result to equal a serial
// run's under ==. A stream is an immutable encoding, so sharing it needs
// no copy and no lock; under `go test -race` this also shows that no
// run writes to it. It covers a memoized benchmark stream and a
// compiled program's stream.
func TestSharedStreamConcurrentRuns(t *testing.T) {
	cfg := mtj.ModernSTT()
	spec, err := workload.ByName("SVM ADULT")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fault.TinySVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	powers := []float64{100e-6, 1e-3, 5e-3}
	harvesters := func() []*power.Harvester {
		hs := make([]*power.Harvester, len(powers))
		for i, p := range powers {
			hs[i] = power.NewHarvester(power.Constant{W: p}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		}
		return hs
	}
	// run returns every Result of one pass: each power through Run,
	// then through RunSweep, then through Run with ForceStepping.
	run := func(s sim.RunStream) ([]sim.Result, error) {
		var out []sim.Result
		r := sim.NewRunner(energy.NewModel(cfg))
		for _, h := range harvesters() {
			res, err := r.Run(s, h)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		results, errs := r.RunSweep(s, harvesters())
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sweep lane %d: %w", i, err)
			}
		}
		out = append(out, results...)
		r.ForceStepping = true
		for _, h := range harvesters() {
			res, err := r.Run(s, h)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	}

	for _, c := range []struct {
		name string
		s    sim.RunStream
	}{
		{spec.Name, spec.Stream()},
		{w.Name + " program", sim.StreamFromProgram(w.Prog, w.Tiles)},
	} {
		want, err := run(c.s)
		if err != nil {
			t.Fatalf("%s: serial: %v", c.name, err)
		}
		const goroutines = 4
		got := make([][]sim.Result, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], errs[g] = run(c.s)
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%s: goroutine %d: %v", c.name, g, errs[g])
			}
			for i := range want {
				if got[g][i] != want[i] {
					t.Errorf("%s: goroutine %d, result %d diverges from the serial run\n got %+v\nwant %+v",
						c.name, g, i, got[g][i], want[i])
				}
			}
		}
	}
}
