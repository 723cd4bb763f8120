package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"mouse/internal/bench"
	"mouse/internal/energy"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// FuzzRunSweepVsRun draws a set of lanes over a Fig. 9 benchmark and
// requires every RunSweep lane to equal an isolated Run of the same
// harvester: Result under ==, error text for text. Every draw holds a
// duplicated power, both of the grid's edge powers, an invalid
// harvester and a solar lane, placed at random among random extra
// lanes; more lanes than the kernel folds at once make some wait for a
// slot.
func FuzzRunSweepVsRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(1), uint8(6))
	f.Add(int64(3), uint8(4), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, benchSel, cfgSel, extra uint8) {
		rng := rand.New(rand.NewSource(seed))
		specs := workload.Benchmarks()
		spec := specs[int(benchSel)%len(specs)]
		cfgs := mtj.Configs()
		cfg := cfgs[int(cfgSel)%len(cfgs)]
		powers := bench.Powers()

		constant := func(w float64) power.Source { return power.Constant{W: w} }
		dup := powers[rng.Intn(len(powers))]
		srcs := []power.Source{
			constant(dup), constant(dup),
			constant(powers[0]), constant(powers[len(powers)-1]),
			power.Solar{Peak: 5e-3, Period: 0.05},
		}
		for i := 0; i < int(extra)%8; i++ {
			// Log-uniform over 20 µW to 20 mW.
			srcs = append(srcs, constant(20e-6*math.Pow(1000, rng.Float64())))
		}
		invalid := len(srcs)
		srcs = append(srcs, constant(powers[rng.Intn(len(powers))]))
		rng.Shuffle(len(srcs), func(i, j int) {
			srcs[i], srcs[j] = srcs[j], srcs[i]
			switch invalid {
			case i:
				invalid = j
			case j:
				invalid = i
			}
		})
		breakKind := rng.Intn(4)
		mk := func(i int) *power.Harvester {
			h := power.NewHarvester(srcs[i], cfg.CapC, cfg.CapVMin, cfg.CapVMax)
			if i == invalid {
				switch breakKind {
				case 0:
					h.Src = power.Constant{W: math.NaN()}
				case 1:
					h.Cap.C = math.NaN()
				case 2:
					h.Cap.C = math.Inf(1)
				case 3:
					h.VOn = math.NaN()
				}
			}
			return h
		}

		model := energy.NewModel(cfg)
		hs := make([]*power.Harvester, len(srcs))
		for i := range hs {
			hs[i] = mk(i)
		}
		sweepRes, sweepErrs := sim.NewRunner(model).RunSweep(spec.Stream(), hs)
		for i := range hs {
			res, err := sim.NewRunner(model).Run(spec.Stream(), mk(i))
			if (sweepErrs[i] == nil) != (err == nil) ||
				(err != nil && sweepErrs[i].Error() != err.Error()) {
				t.Fatalf("%s / %s lane %d (%s): error parity broken: sweep=%v solo=%v",
					cfg.Name, spec.Name, i, srcs[i].Name(), sweepErrs[i], err)
			}
			if sweepRes[i] != res {
				t.Errorf("%s / %s lane %d (%s): sweep lane diverges from solo run\nsweep: %+v\nsolo:  %+v",
					cfg.Name, spec.Name, i, srcs[i].Name(), sweepRes[i], res)
			}
		}
		if sweepErrs[invalid] == nil {
			t.Errorf("%s / %s: invalid lane %d ran without error", cfg.Name, spec.Name, invalid)
		}
	})
}
