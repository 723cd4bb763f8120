package sim_test

// The external-package grid test: the in-package differential tests
// (segment_test.go) cover randomized streams; this one pins the
// acceptance criterion itself — bit-identical Results on every
// (configuration × benchmark × power) point the paper figures sweep —
// using the real workload streams the bench package runs. It lives in
// sim_test because workload imports sim.

import (
	"reflect"
	"testing"

	"mouse/internal/bench"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// TestSegmentMatchesSteppingGrid runs every Fig. 9 grid point (all
// three MTJ configurations × all benchmarks × the paper's power sweep,
// which includes the 60 µW column Figs. 10–12 and Table IV read off)
// through both engines and requires Result equality under ==.
func TestSegmentMatchesSteppingGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped with -short")
	}
	for _, cfg := range mtj.Configs() {
		model := energy.NewModel(cfg)
		for _, spec := range workload.Benchmarks() {
			for _, watts := range bench.Powers() {
				mk := func() *power.Harvester {
					return power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				}

				seg := sim.NewRunner(model)
				segRes, segErr := seg.Run(spec.Stream(), mk())

				step := sim.NewRunner(model)
				step.ForceStepping = true
				stepRes, stepErr := step.Run(spec.Stream(), mk())

				if (segErr == nil) != (stepErr == nil) ||
					(segErr != nil && segErr.Error() != stepErr.Error()) {
					t.Fatalf("%s / %s / %.3g W: error parity broken: segment=%v stepping=%v",
						cfg.Name, spec.Name, watts, segErr, stepErr)
				}
				if segRes != stepRes {
					t.Errorf("%s / %s / %.3g W: segment result diverges\nsegment:  %+v\nstepping: %+v",
						cfg.Name, spec.Name, watts, segRes, stepRes)
				}
			}
		}
	}
}

// TestSegmentStatsMatchSteppingGrid is the telemetry counterpart of
// TestSegmentMatchesSteppingGrid: on every grid point, a fresh
// probe.Stats observing the default path (the segment engine, through
// Stats' bulk events) and one observing ForceStepping must give
// deep-equal Sections, floats included, next to == Results. Then one
// Stats shared by a whole bench.ComputeFig9 grid per configuration
// must match stepping's, which has the run-length adds land on sums
// that are already non-zero. probe.Multi is not a bulk observer, so
// wrapping the shared Stats in it makes ComputeFig9 step.
func TestSegmentStatsMatchSteppingGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped with -short")
	}
	if raceEnabled {
		// Every run here is sequential on the test goroutine, so the
		// detector has nothing to find, and it stretches the stepped
		// Stats runs from seconds to minutes.
		t.Skip("sequential full paper grid; skipped under -race")
	}
	for _, cfg := range mtj.Configs() {
		model := energy.NewModel(cfg)
		for _, spec := range workload.Benchmarks() {
			for _, watts := range bench.Powers() {
				mk := func() *power.Harvester {
					return power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
				}
				segStats, stepStats := &probe.Stats{}, &probe.Stats{}

				seg := sim.NewRunner(model)
				seg.Obs = segStats
				segRes, segErr := seg.Run(spec.Stream(), mk())

				step := sim.NewRunner(model)
				step.Obs = stepStats
				step.ForceStepping = true
				stepRes, stepErr := step.Run(spec.Stream(), mk())

				if segErr != nil || stepErr != nil {
					t.Fatalf("%s / %s / %.3g W: segment=%v stepping=%v", cfg.Name, spec.Name, watts, segErr, stepErr)
				}
				if segRes != stepRes {
					t.Errorf("%s / %s / %.3g W: observed segment result diverges\nsegment:  %+v\nstepping: %+v",
						cfg.Name, spec.Name, watts, segRes, stepRes)
				}
				if a, b := segStats.Section(), stepStats.Section(); !reflect.DeepEqual(a, b) {
					t.Errorf("%s / %s / %.3g W: telemetry diverges\nsegment:  %+v\nstepping: %+v",
						cfg.Name, spec.Name, watts, a, b)
				}
			}
		}

		segStats, stepStats := &probe.Stats{}, &probe.Stats{}
		segPts, segErr := bench.ComputeFig9(cfg, bench.Powers(), 1, segStats)
		stepPts, stepErr := bench.ComputeFig9(cfg, bench.Powers(), 1, probe.Multi{stepStats})
		if segErr != nil || stepErr != nil {
			t.Fatalf("%s: ComputeFig9: segment=%v stepping=%v", cfg.Name, segErr, stepErr)
		}
		if !reflect.DeepEqual(segPts, stepPts) {
			t.Errorf("%s: ComputeFig9 points diverge between engines", cfg.Name)
		}
		if a, b := segStats.Section(), stepStats.Section(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: shared Fig. 9 telemetry diverges\nsegment:  %+v\nstepping: %+v", cfg.Name, a, b)
		}
	}
}

// TestRunSweepMatchesRun drives each benchmark's whole power grid as
// one interleaved RunSweep call and requires every lane bit-identical
// (==) to the same point run in isolation — lane interleaving must not
// leak state between powers. A solar lane is mixed in to exercise the
// sweep's sequential fallback alongside live lanes.
func TestRunSweepMatchesRun(t *testing.T) {
	cfg := mtj.ModernSTT()
	model := energy.NewModel(cfg)
	for _, spec := range workload.Benchmarks() {
		hs := make([]*power.Harvester, 0, len(bench.Powers())+2)
		for _, watts := range bench.Powers() {
			hs = append(hs, power.NewHarvester(power.Constant{W: watts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax))
		}
		hs = append(hs, power.NewHarvester(power.Solar{Peak: 5e-3, Period: 0.05}, cfg.CapC, cfg.CapVMin, cfg.CapVMax))

		sweepRes, sweepErrs := sim.NewRunner(model).RunSweep(spec.Stream(), hs)

		for i := range hs {
			h := power.NewHarvester(hs[i].Src, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			res, err := sim.NewRunner(model).Run(spec.Stream(), h)
			if (sweepErrs[i] == nil) != (err == nil) ||
				(err != nil && sweepErrs[i].Error() != err.Error()) {
				t.Fatalf("%s lane %d: error parity broken: sweep=%v solo=%v", spec.Name, i, sweepErrs[i], err)
			}
			if sweepRes[i] != res {
				t.Errorf("%s lane %d: sweep lane diverges from solo run\nsweep: %+v\nsolo:  %+v",
					spec.Name, i, sweepRes[i], res)
			}
		}
	}
}
