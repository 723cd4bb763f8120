package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

// TestNonFiniteHarvesterTerminates feeds each engine, and RunSweep, a
// harvester with one non-finite parameter. Each must return
// ErrInvalidHarvester within the watchdog's bound: a NaN that slipped
// past Validate once left both engines recharging forever.
func TestNonFiniteHarvesterTerminates(t *testing.T) {
	cfg := mtj.ModernSTT()
	cases := []struct {
		name   string
		mutate func(h *power.Harvester)
	}{
		{"constant NaN W", func(h *power.Harvester) { h.Src = power.Constant{W: math.NaN()} }},
		{"capacitance NaN", func(h *power.Harvester) { h.Cap.C = math.NaN() }},
		{"capacitance +Inf", func(h *power.Harvester) { h.Cap.C = math.Inf(1) }},
		{"restart voltage NaN", func(h *power.Harvester) { h.VOn = math.NaN() }},
	}
	for _, c := range cases {
		mk := func() *power.Harvester {
			h := harvester(cfg, 1e-3)
			c.mutate(h)
			return h
		}
		for _, engine := range []string{"segment", "stepping", "sweep"} {
			r := NewRunner(energy.NewModel(cfg))
			r.ForceStepping = engine == "stepping"
			var err error
			withDeadline(t, 5*time.Second, func() {
				s := StreamOf(opsFixture(2000))
				if engine != "sweep" {
					_, err = r.Run(s, mk())
					return
				}
				_, errs := r.RunSweep(s, []*power.Harvester{harvester(cfg, 1e-3), mk()})
				err = errs[1]
				if errs[0] != nil {
					t.Errorf("%s / %s: valid lane failed: %v", c.name, engine, errs[0])
				}
			})
			if !errors.Is(err, power.ErrInvalidHarvester) {
				t.Errorf("%s / %s: got %v, want ErrInvalidHarvester", c.name, engine, err)
			}
		}
	}
}
