package bench

import (
	"fmt"
	"testing"

	"mouse/internal/baseline"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// fig9PointByPoint is the Fig. 9 grid built one cell at a time, each
// MOUSE point by an isolated r.Run on its own runner and harvester:
// the grid's definition, and the oracle ComputeFig9's row sweeps are
// held to.
func fig9PointByPoint(cfg *mtj.Config, powers []float64) ([]Fig9Point, error) {
	var points []Fig9Point
	for _, s := range workload.Benchmarks() {
		for _, p := range powers {
			r := sim.NewRunner(energy.NewModel(cfg))
			h := power.NewHarvester(power.Constant{W: p}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			res, err := r.Run(s.Stream(), h)
			if err != nil {
				return nil, fmt.Errorf("%s at %g W: %w", s.Name, p, err)
			}
			points = append(points, Fig9Point{System: s.Name, Watts: p,
				LatencySec: res.TotalLatency(), Restarts: res.Restarts})
		}
	}
	for _, mk := range []func() *baseline.SONIC{baseline.SONICMNIST, baseline.SONICHAR} {
		for _, p := range powers {
			sb := mk()
			res, err := sb.Run(power.Constant{W: p})
			if err != nil {
				return nil, fmt.Errorf("%s at %g W: %w", sb.Name, p, err)
			}
			points = append(points, Fig9Point{System: sb.Name, Watts: p,
				LatencySec: res.Latency, Restarts: uint64(res.Restarts)})
		}
	}
	return points, nil
}

// TestFig9MatchesPointByPoint requires ComputeFig9 to equal the
// point-by-point grid, point for point and in order, for every
// configuration at one worker and at four.
func TestFig9MatchesPointByPoint(t *testing.T) {
	for _, cfg := range mtj.Configs() {
		want, err := fig9PointByPoint(cfg, Powers())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := ComputeFig9(cfg, Powers(), workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", cfg.Name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d workers: %d points, want %d", cfg.Name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s, %d workers, point %d: got %+v, want %+v", cfg.Name, workers, i, got[i], want[i])
				}
			}
		}
	}
}
