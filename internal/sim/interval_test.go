package sim_test

import (
	"testing"

	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// TestCheckpointIntervalOneMatchesRun: interval 1 is MOUSE's design
// point, so RunWithCheckpointInterval must report exactly Run's Result
// on a stream with outages — through the segment engine and through the
// stepping loop alike.
func TestCheckpointIntervalOneMatchesRun(t *testing.T) {
	cfg := mtj.ModernSTT()
	spec, err := workload.ByName("SVM ADULT")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *power.Harvester {
		return power.NewHarvester(power.Constant{W: 60e-6}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	}
	r := sim.NewRunner(energy.NewModel(cfg))
	want, err := r.Run(spec.Stream(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if want.Restarts == 0 {
		t.Fatal("no outages: the comparison would not exercise replay")
	}
	stepping := *r
	stepping.ForceStepping = true
	for _, rr := range []*sim.Runner{r, &stepping} {
		got, err := rr.RunWithCheckpointInterval(spec.Stream(), mk(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("ForceStepping=%v: interval 1 diverges from Run\ninterval: %+v\nRun:      %+v", rr.ForceStepping, got, want)
		}
	}
}
